(* Engine workloads: leader election (§5.1) through the transformer on a
   torus, from a fully corrupted packed start, under a synchronous or a
   uniform central daemon, on one domain. *)

module Rng = Ss_prelude.Rng
module G = Ss_graph
module Sim = Ss_sim
module T = Ss_core.Transformer
module P = Ss_core.Predicates
module Budget = Ss_report.Budget
module Catalog = Ss_expt.Catalog

type daemon = Synchronous | Central
type config = { rows : int; cols : int; daemon : daemon }

(* Hard per-instance wall-clock allowance: far above any healthy run. *)
let deadline_s = 60.

(* Accumulators of the traced run, filled by wrappers around the
   daemon's [select] and each rule's [guard] and [action]. *)
type probe = {
  mutable guard_evals : int;
  mutable guard_true : int;
  mutable guard_s : float;
  mutable actions : int;
  mutable action_s : float;
  mutable selects : int;
  mutable enabled_sum : int;
  mutable daemon_s : float;
}

let probe () =
  {
    guard_evals = 0;
    guard_true = 0;
    guard_s = 0.;
    actions = 0;
    action_s = 0.;
    selects = 0;
    enabled_sum = 0;
    daemon_s = 0.;
  }

let traced_algorithm p algo =
  let rule (r : _ Sim.Algorithm.rule) =
    {
      r with
      Sim.Algorithm.guard =
        (fun v ->
          let t0 = Perf.now () in
          let b = r.guard v in
          p.guard_s <- p.guard_s +. (Perf.now () -. t0);
          p.guard_evals <- p.guard_evals + 1;
          if b then p.guard_true <- p.guard_true + 1;
          b);
      action =
        (fun v ->
          let t0 = Perf.now () in
          let s = r.action v in
          p.action_s <- p.action_s +. (Perf.now () -. t0);
          p.actions <- p.actions + 1;
          s);
    }
  in
  { algo with Sim.Algorithm.rules = List.map rule algo.Sim.Algorithm.rules }

let traced_daemon p (d : Sim.Daemon.t) =
  Sim.Daemon.of_fun d.daemon_name (fun ~step ~enabled ->
      let t0 = Perf.now () in
      let sel = d.select ~step ~enabled in
      p.daemon_s <- p.daemon_s +. (Perf.now () -. t0);
      p.selects <- p.selects + 1;
      p.enabled_sum <- p.enabled_sum + Array.length enabled;
      sel)

(* Set-up repeats per instance (see {!Perf.instance}). *)
let setup_reps = 3

let prepare cfg ?probe ~seed index () =
  let rng = Rng.split_at ~seed ~index in
  let t0 = Perf.now () in
  let g = G.Builders.torus ~rows:cfg.rows ~cols:cfg.cols in
  let t1 = Perf.now () in
  match (Catalog.find_algo "leader").Catalog.instantiate (Rng.split rng) g with
  | Catalog.Inst { sync; inputs; spec; codec } ->
      let hist = Ss_sync.Sync_runner.run sync g ~inputs in
      let t2 = Perf.now () in
      let b = max 1 hist.Ss_sync.Sync_runner.t in
      let params = T.params ~bound:(P.Finite b) sync in
      let codec = Option.get codec in
      let start =
        T.corrupt (Rng.split rng) ~max_height:b params
          (T.packed_config params ~codec g ~inputs)
      in
      let t3 = Perf.now () in
      let go () =
        let daemon =
          match cfg.daemon with
          | Synchronous -> Sim.Daemon.synchronous
          | Central -> Sim.Daemon.central_random (Rng.split rng)
        in
        let budget = Budget.v ~deadline_s () in
        let gc0 = Perf.gc_now () in
        let t4 = Perf.now () in
        let stats =
          match probe with
          | None -> T.run ~budget params daemon start
          | Some p ->
              Sim.Engine.run ~budget
                (traced_algorithm p (T.algorithm params))
                (traced_daemon p daemon) start
        in
        let t5 = Perf.now () in
        let gc1 = Perf.gc_now () in
        let st = stats.Sim.Engine.final in
        let failure =
          if not stats.Sim.Engine.terminated then
            Some
              ("not terminated: "
              ^ Budget.outcome_to_string stats.Sim.Engine.outcome)
          else if b < hist.Ss_sync.Sync_runner.t then Some "bound-cut run (B < T)"
          else
            match Ss_core.Checker.legitimate_terminal params hist st with
            | Error e -> Some ("illegitimate terminal: " ^ e)
            | Ok () ->
                if spec (T.outputs st) then None
                else Some "specification violated"
        in
        let t6 = Perf.now () in
        (* §6 accounting: each move informs the mover's [deg] neighbours
           ({!Ss_energy.Energy.cost}'s [messages]). *)
        let messages = ref 0 in
        Array.iteri
          (fun v k -> messages := !messages + (k * G.Graph.degree g v))
          stats.Sim.Engine.moves_per_node;
        {
          Perf.build_s = 0.;
          history_s = 0.;
          start_s = 0.;
          run_s = t5 -. t4;
          check_s = t6 -. t5;
          sync_t = hist.Ss_sync.Sync_runner.t;
          moves = stats.Sim.Engine.moves;
          deliveries = !messages;
          gc = Perf.gc_diff gc0 gc1;
          model =
            [
              ("steps", stats.Sim.Engine.steps);
              ("moves", stats.Sim.Engine.moves);
              ("rounds", stats.Sim.Engine.rounds);
            ];
          failure;
        }
      in
      ((t1 -. t0, t2 -. t1, t3 -. t2), go)

let instance cfg ?probe ~seed index =
  Perf.instance ~reps:setup_reps (prepare cfg ?probe ~seed index)

(* Per-layer figures of the [traced] pass, whose wrappers filled [p].
   Engine times are per step, so that self, guard, action and daemon
   time add up to the step time; counts are per instance. *)
let layers ~traced p =
  let sum key =
    float (List.fold_left (fun a s -> a + List.assoc key s.Perf.model) 0 traced)
  in
  let k = float (List.length traced) and steps = sum "steps" in
  let run_s = List.fold_left (fun a s -> a +. s.Perf.run_s) 0. traced in
  let self_s = run_s -. p.guard_s -. p.action_s -. p.daemon_s in
  let ns_per_step s = s *. 1e9 /. steps in
  [
    ("sim.step_self_ns", ns_per_step self_s, "ns");
    ("sim.daemon_ns", ns_per_step p.daemon_s, "ns");
    ("sim.enabled_mean", float p.enabled_sum /. float p.selects, "count");
    ("sim.steps", steps /. k, "count");
    ("sim.moves_per_step", sum "moves" /. steps, "count");
    ("sim.rounds", sum "rounds" /. k, "count");
    ("core.guard_evals", float p.guard_evals /. k, "count");
    ( "core.guard_true_frac",
      float p.guard_true /. float p.guard_evals,
      "ratio" );
    ("core.guard_ns", ns_per_step p.guard_s, "ns");
    ("core.actions", float p.actions /. k, "count");
    ("core.action_ns", ns_per_step p.action_s, "ns");
  ]
