(* Campaign workload: the chaos grid [Sim_expt.rows] — every scenario ×
   {leader, bfs, cv} × {ring:n, random:n} — on the [Ss_par] pool.
   Drops, duplicates and reorders go through the message network's side
   queue and repair traffic, and every cell pays its own [expt] set-up.
   One instance is one whole grid under one cell seed. *)

module Rng = Ss_prelude.Rng
module Table = Ss_prelude.Table
module G = Ss_graph
module Sim_expt = Ss_expt.Sim_expt
module Scenario = Ss_chaos.Scenario
module Par = Ss_par.Par

(* Wall-clock allowance for one grid.  The cells carry their own
   deadline budgets on virtual clocks; this one bounds the whole call
   from outside. *)
let deadline_s = 120.

let graphs ~n rng =
  [
    ("ring:" ^ string_of_int n, G.Builders.cycle n);
    ( "random:" ^ string_of_int n,
      G.Builders.random_connected rng ~n ~extra_edges:(n / 2) );
  ]

(* The grid's cell seed for instance [index] of the run seeded [seed]. *)
let cell_seed ~seed index = (seed * 1000) + index

(* Modelled totals of a grid table: the cells' moves (both loops),
   message deliveries, injected faults, and failed rows. *)
let model table =
  let headers = Table.headers table in
  let col name =
    let rec find i = function
      | [] -> invalid_arg name
      | h :: _ when h = name -> i
      | _ :: t -> find (i + 1) t
    in
    find 0 headers
  in
  let int_at row name =
    match List.nth row (col name) with Table.I v -> v | Table.S _ -> 0
  in
  let msgnet row = List.nth row (col "loop") = Table.S "msgnet" in
  let sum ?(only = fun _ -> true) name =
    List.fold_left
      (fun acc row -> if only row then acc + int_at row name else acc)
      0 (Table.rows table)
  in
  [
    ("rows", List.length (Table.rows table));
    ( "failed_rows",
      List.length
        (List.filter
           (fun row -> List.nth row (col "ok") <> Table.S "yes")
           (Table.rows table)) );
    ("moves", sum "moves");
    ("deliveries", sum ~only:msgnet "events");
    ("drops", sum "drops");
    ("dups", sum "dups");
    ("reorders", sum "reorders");
    ("corruptions", sum "corrupt");
  ]

let setup ~n ~seed index =
  let rng = Rng.split_at ~seed ~index in
  let t0 = Perf.now () in
  let gs = graphs ~n (Rng.split rng) in
  let t1 = Perf.now () in
  let workloads = Sim_expt.workloads_for (Rng.split rng) gs in
  let t2 = Perf.now () in
  (workloads, t1 -. t0, t2 -. t1)

(* One grid over [scenarios] and [workloads]; the verdict is checked
   inside the timed region, as part of reaching a certified result. *)
let grid ?(scenarios = Scenario.all) ~seeds workloads =
  let gc0 = Perf.gc_now () in
  let t0 = Perf.now () in
  let result =
    match Sim_expt.rows ~scenarios ~seeds workloads with
    | table, ok -> Ok (table, ok)
    | exception Sim_expt.Invariant_violation e ->
        Error ("invariant violation: " ^ e)
  in
  let t1 = Perf.now () in
  let gc1 = Perf.gc_now () in
  (result, t1 -. t0, Perf.gc_diff gc0 gc1)

(* Set-up is cheap next to the grid: repeat it enough to steady it. *)
let setup_reps = 25

let prepare ~n ~seed index () =
  let workloads, build_s, history_s = setup ~n ~seed index in
  let go () =
    let result, run_s, gc = grid ~seeds:[ cell_seed ~seed index ] workloads in
    let model, failure =
      match result with
      | Error e -> ([], Some e)
      | Ok (table, ok) ->
          let m = model table in
          let failure =
            if not ok then
              Some
                (Printf.sprintf "%d grid rows failed to re-stabilize"
                   (List.assoc "failed_rows" m))
            else if run_s > deadline_s then
              Some (Printf.sprintf "grid overran its %.0fs deadline" deadline_s)
            else None
          in
          (m, failure)
    in
    let get k = Option.value (List.assoc_opt k model) ~default:0 in
    {
      Perf.build_s = 0.;
      history_s = 0.;
      start_s = 0.;
      run_s;
      check_s = 0.;
      sync_t = 0;
      moves = get "moves";
      deliveries = get "deliveries";
      gc;
      model;
      failure;
    }
  in
  ((build_s, history_s, 0.), go)

let instance ~n ~seed index =
  Perf.instance ~reps:setup_reps (prepare ~n ~seed index)

let with_jobs j f =
  let saved = Par.jobs () in
  Par.set_jobs j;
  Fun.protect ~finally:(fun () -> Par.set_jobs saved) f

(* The traced run: for each instance, the grid at [jobs], each scenario
   alone at [jobs], and each cell alone at jobs=1; every split must
   model exactly what the whole grid did at jobs=1.  [firsts] pairs each
   instance index with its sample from the exact pass (jobs=1). *)
let layers ~n ~jobs ~seed firsts =
  let model_of = function
    | Ok (table, _), _, _ -> model table
    | Error e, _, _ -> failwith e
  in
  let add_models like ms =
    List.fold_left
      (fun acc m -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc m)
      (List.map (fun (k, _) -> (k, 0)) like)
      ms
  in
  let one (index, (first : Perf.sample)) =
    let seeds = [ cell_seed ~seed index ] in
    let workloads, _, _ = setup ~n ~seed index in
    let expect what m =
      if m <> first.Perf.model then
        failwith (what ^ ": modelled stats differ from the jobs=1 grid")
    in
    let whole_s, per_scenario =
      with_jobs jobs (fun () ->
          let ((_, s, _) as r) = grid ~seeds workloads in
          expect "jobs=nproc grid" (model_of r);
          ( s,
            List.map
              (fun sc ->
                let ((_, s, _) as r) =
                  grid ~scenarios:[ sc ] ~seeds workloads
                in
                (sc.Scenario.name, s, model_of r))
              Scenario.all ))
    in
    let cells =
      with_jobs 1 (fun () ->
          List.concat_map
            (fun sc ->
              List.map
                (fun w ->
                  let ((_, s, _) as r) = grid ~scenarios:[ sc ] ~seeds [ w ] in
                  (s, model_of r))
                workloads)
            Scenario.all)
    in
    let like = first.Perf.model in
    expect "per-scenario grids"
      (add_models like (List.map (fun (_, _, m) -> m) per_scenario));
    expect "per-cell grids" (add_models like (List.map snd cells));
    (first, whole_s, per_scenario, List.map fst cells)
  in
  let runs = List.map one firsts in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. runs in
  let serial_s = total (fun (first, _, _, _) -> first.Perf.run_s) in
  let whole_s = total (fun (_, s, _, _) -> s) in
  let cell_s = List.concat_map (fun (_, _, _, c) -> c) runs in
  let cells_total = List.fold_left ( +. ) 0. cell_s in
  let longest = List.fold_left max 0. cell_s in
  let k = float (List.length runs) in
  let per key =
    total (fun (first, _, _, _) -> float (List.assoc key first.Perf.model))
    /. k
  in
  List.map
    (fun sc ->
      ( "chaos.grid_s." ^ sc.Scenario.name,
        total (fun (_, _, ps, _) ->
            List.fold_left
              (fun acc (name, s, _) ->
                if name = sc.Scenario.name then acc +. s else acc)
              0. ps)
        /. k,
        "s" ))
    Scenario.all
  @ [
      ("chaos.drops", per "drops", "count");
      ("chaos.dups", per "dups", "count");
      ("chaos.reorders", per "reorders", "count");
      ("chaos.corruptions", per "corruptions", "count");
      ("expt.cells", float (List.length cell_s) /. k, "count");
      ("expt.cell_s.median", Perf.median cell_s, "s");
      ("expt.cell_s.max", longest, "s");
      ("par.speedup", serial_s /. whole_s, "ratio");
      ("par.occupancy", cells_total /. (float jobs *. whole_s), "ratio");
      ("par.longest_cell_frac", longest *. k /. whole_s, "ratio");
      ("trace.overhead", cells_total /. serial_s, "ratio");
    ]
