(* The repository's benchmark program.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
                      [--seeds A,B,..]

   Runs one workload's instances (one per entry of [--seeds], each
   drawn from [--seed]) for about [--seconds] seconds, checks every
   result, and prints as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  The line
   before it records the environment.  [--exact] instead prints only
   the metrics that must repeat exactly, which the selftest alias
   compares across two invocations.
   See perfbench/README.md. *)

module Json = Ss_report.Json
module Par = Ss_par.Par

(* The declared metrics, name and unit in order, from the [key] list of
   the BENCHMARK.json in the current directory (the checkout root). *)
let declared_metrics key =
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> fail e
  in
  match Json.of_string text with
  | Error e -> fail e
  | Ok doc -> (
      match Json.member key doc with
      | Some (Json.List ms) ->
          List.map
            (fun m ->
              match (Json.member "name" m, Json.member "unit" m) with
              | Some (Json.String name), Some (Json.String unit_) ->
                  (name, unit_)
              | _ -> fail ("malformed entry in " ^ key))
            ms
      | _ -> fail ("no list " ^ key))

type workload =
  | Engine of Engine_wl.config
  | Msgnet of Msgnet_wl.config
  | Campaign of int  (** Nodes per graph. *)

let workloads =
  [
    ( "engine-sync",
      Engine { Engine_wl.rows = 24; cols = 24; daemon = Synchronous } );
    ( "engine-central",
      Engine { Engine_wl.rows = 16; cols = 16; daemon = Central } );
    ("msgnet-ring", Msgnet { Msgnet_wl.n = 500; width = 17 });
    ("campaign-chaos", Campaign 16);
  ]

(* Instances per run, by default [1..k]: enough that the run's mean
   counts vary across [--seed]s by a few percent at most. *)
let default_instances = function
  | Engine _ -> 4
  | Msgnet _ -> 32
  | Campaign _ -> 64

(* Domains a workload runs on: the campaign uses the whole pool. *)
let jobs = function Campaign _ -> Par.default_jobs () | Engine _ | Msgnet _ -> 1

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  seeds : int list;
  exact : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and seeds = ref "" in
  let exact = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (held out: 97)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead");
      ( "--seeds",
        Arg.Set_string seeds,
        "A,B,.. instance indices (default 1..k, k by workload)" );
      ("--exact", Arg.Set exact, " print only the exact metrics");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then (
    prerr_endline
      ("unknown workload; one of: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2);
  let seeds =
    if !seeds = "" then
      List.init
        (default_instances (List.assoc !workload workloads))
        (fun i -> i + 1)
    else List.map int_of_string (String.split_on_char ',' !seeds)
  in
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    seeds;
    exact = !exact;
  }

let metric_json (name, value, unit_) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let env_line o ~jobs =
  Json.Obj
    [
      ("workload", Json.String o.workload);
      ("seed", Json.Int o.seed);
      ("seeds", Json.List (List.map (fun s -> Json.Int s) o.seeds));
      ("seconds", Json.Float o.seconds);
      ("trace", Json.Bool o.trace);
      ("jobs", Json.Int jobs);
      ("nproc", Json.Int (Par.default_jobs ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "git_rev",
        Json.String
          (Option.value (Sys.getenv_opt "PERFBENCH_GIT_REV") ~default:"unknown")
      );
    ]

let failures samples =
  List.filter_map (fun s -> s.Perf.failure) samples

(* Rounds of the traced run (see {!traced_passes}). *)
let trace_rounds = 5

(* An untraced pass, then [trace_rounds] rounds of a traced pass and an
   untraced one.  The first untraced pass gives the exact figures;
   every traced pass must model exactly what it did; [trace.overhead]
   is the mean traced time over the mean untraced time. *)
let traced_passes o inst probe =
  let pass probe = List.map (inst ?probe ~seed:o.seed) o.seeds in
  let first = pass None in
  let rounds =
    List.init trace_rounds (fun _ ->
        let traced = pass (Some probe) in
        Perf.assert_same_model ~untraced:first ~traced;
        (traced, pass None))
  in
  let traced = List.concat_map fst rounds in
  let untraced = first @ List.concat_map snd rounds in
  let mean l =
    List.fold_left (fun a s -> a +. s.Perf.run_s) 0. l /. float (List.length l)
  in
  let overhead = mean traced /. mean untraced in
  (first, traced, untraced, ("trace.overhead", overhead, "ratio"))

(* The selected workload's untraced instance [index]. *)
let instance o =
  match List.assoc o.workload workloads with
  | Engine cfg -> fun i -> Engine_wl.instance cfg ~seed:o.seed i
  | Msgnet cfg -> fun i -> Msgnet_wl.instance cfg ~seed:o.seed i
  | Campaign n -> fun i -> Campaign_wl.instance ~n ~seed:o.seed i

(* Runs the selected workload: every sample taken, and the metrics. *)
let run o =
  let w = List.assoc o.workload workloads in
  let jobs = jobs w in
  match w with
  | _ when not o.trace ->
      let first, peak, timed =
        Perf.passes ~seconds:o.seconds ~jobs (instance o) o.seeds
      in
      ( first @ List.map fst timed,
        Perf.timings timed @ Perf.exact ~first ~peak )
  | Engine cfg ->
      let p = Engine_wl.probe () in
      let first, traced, untraced, overhead =
        traced_passes o (Engine_wl.instance cfg) p
      in
      ( traced @ untraced,
        (overhead :: Engine_wl.layers ~traced p) @ Perf.common_layers ~first )
  | Msgnet cfg ->
      let p = Msgnet_wl.probe () in
      let first, traced, untraced, overhead =
        traced_passes o (Msgnet_wl.instance cfg) p
      in
      ( traced @ untraced,
        (overhead :: Msgnet_wl.layers ~first p) @ Perf.common_layers ~first )
  | Campaign n ->
      let first, _ = Perf.exact_pass (instance o) o.seeds in
      ( first,
        Campaign_wl.layers ~n ~jobs ~seed:o.seed (List.combine o.seeds first)
        @ Perf.common_layers ~first )

let attempted_failed samples =
  List.fold_left
    (fun (a, f) s ->
      match List.assoc_opt "rows" s.Perf.model with
      | Some rows ->
          let failed = List.assoc "failed_rows" s.Perf.model in
          (a + rows, f + if s.Perf.failure = None then 0 else max 1 failed)
      | None -> (a + 1, f + if s.Perf.failure = None then 0 else 1))
    (0, 0) samples

(* The selftest's view: figures that must repeat exactly across fresh
   processes, from the exact pass on one domain.  The campaign's grid
   must also model the same at jobs=nproc as at jobs=1. *)
let exact o =
  let certified samples =
    List.iter
      (fun e ->
        prerr_endline ("perfbench: FAILED " ^ e);
        exit 1)
      (failures samples)
  in
  let first, peak = Perf.exact_pass (instance o) o.seeds in
  certified first;
  List.iter
    (fun s ->
      print_endline
        (Json.to_string
           (Json.Obj
              (("workload", Json.String o.workload)
              :: List.map (fun (k, v) -> (k, Json.Int v)) s.Perf.model))))
    first;
  List.iter
    (fun (k, v, _) -> Printf.printf "%s %s %.17g\n" o.workload k v)
    (Perf.exact ~first ~peak);
  let jobs = jobs (List.assoc o.workload workloads) in
  if jobs > 1 then begin
    Par.set_jobs jobs;
    let again = List.map (instance o) o.seeds in
    certified again;
    if List.exists2 (fun x y -> x.Perf.model <> y.Perf.model) first again
    then (
      prerr_endline
        (Printf.sprintf "perfbench: %s models differ at jobs=1 and jobs=%d"
           o.workload jobs);
      exit 1)
  end

(* The reported metrics in declared order.  A per-layer metric of a
   layer the workload does not run reads 0; anything else missing,
   undeclared or in another unit is a bug here. *)
let declared decl ~trace metrics =
  List.iter
    (fun (k, _, _) ->
      if not (List.mem_assoc k decl) then failwith ("undeclared metric " ^ k))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (k, _, _) -> k = name) metrics with
      | Some ((_, _, u) as m) when u = unit_ -> m
      | Some _ -> failwith ("unit mismatch for " ^ name)
      | None when trace -> (name, 0., unit_)
      | None -> failwith ("workload did not report " ^ name))
    decl

let () =
  let o = parse_args () in
  if o.exact then exact o
  else begin
    let decl =
      declared_metrics (if o.trace then "per_layer" else "end_to_end")
    in
    let jobs = jobs (List.assoc o.workload workloads) in
    Par.set_jobs jobs;
    let samples, metrics = run o in
    let metrics = declared decl ~trace:o.trace metrics in
    let attempted, failed = attempted_failed samples in
    List.iter
      (fun e -> prerr_endline ("perfbench: FAILED " ^ e))
      (failures samples);
    print_endline ("# env " ^ Json.to_string (env_line o ~jobs));
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (failed = 0));
              ("attempted", Json.Int attempted);
              ("failed", Json.Int failed);
              ("metrics", Json.Obj (List.map metric_json metrics));
            ]));
    if failed > 0 then exit 1
  end
