(* Message-plane workload: Cole-Vishkin 3-colouring (§5.3) on a ring
   through [Msgnet.run] in the production configuration — codec proofs,
   packed mirrors, delta encoding, the default heartbeat and corrupted
   mirrors — on one domain.  It bypasses the engine entirely. *)

module Rng = Ss_prelude.Rng
module G = Ss_graph
module T = Ss_core.Transformer
module P = Ss_core.Predicates
module M = Ss_msgnet.Msgnet
module CV = Ss_algos.Cole_vishkin
module Budget = Ss_report.Budget

type config = { n : int; width : int }

let deadline_s = 60.

(* Time after each [Delivered] or [Wave] event, up to the next one,
   charged to that event's kind: update, proof, request, full copy,
   wave.  Time before the first such event is charged to nothing. *)
type probe = {
  busy_s : float array;
  events : int array;
  mutable current : int;
  mutable last : float;
  mutable codec_s : float;
  mutable hash_s : float;
  mutable encoded : int;
}

let kinds = [| "update"; "proof"; "request"; "full_copy"; "wave" |]

let probe () =
  {
    busy_s = Array.make 5 0.;
    events = Array.make 5 0;
    current = -1;
    last = 0.;
    codec_s = 0.;
    hash_s = 0.;
    encoded = 0;
  }

let kind_index = function
  | M.K_update -> 0
  | M.K_proof -> 1
  | M.K_request -> 2
  | M.K_full_copy -> 3

let charge p t =
  if p.current >= 0 then
    p.busy_s.(p.current) <- p.busy_s.(p.current) +. (t -. p.last);
  p.last <- t

let restart p t =
  p.current <- -1;
  p.last <- t

let switch p k =
  p.current <- k;
  p.events.(k) <- p.events.(k) + 1

let sink p ev =
  charge p (Perf.now ());
  match ev with
  | M.Delivered { kind; _ } -> switch p (kind_index kind)
  | M.Wave _ -> switch p 4
  | _ -> ()

(* The proof pipeline's two stages, timed on the run's final states. *)
let time_proofs p states =
  Array.iter
    (fun st ->
      let t0 = Perf.now () in
      let bytes = M.codec_bytes CV.codec st in
      let t1 = Perf.now () in
      ignore (Sys.opaque_identity (Ss_energy.Energy.state_proof ~nonce:1L bytes));
      let t2 = Perf.now () in
      p.codec_s <- p.codec_s +. (t1 -. t0);
      p.hash_s <- p.hash_s +. (t2 -. t1);
      p.encoded <- p.encoded + 1)
    states

(* Set-up repeats per instance (see {!Perf.instance}). *)
let setup_reps = 3

let prepare cfg ?probe ~seed index () =
  let rng = Rng.split_at ~seed ~index in
  let t0 = Perf.now () in
  let g = G.Builders.cycle cfg.n in
  let t1 = Perf.now () in
  let ids = CV.random_ring_ids (Rng.split rng) ~n:cfg.n ~width:cfg.width in
  let inputs = CV.inputs ~ids ~width:cfg.width g in
  let hist = Ss_sync.Sync_runner.run CV.algo g ~inputs in
  let t2 = Perf.now () in
  let b = CV.schedule_length cfg.width in
  let params = T.params ~mode:P.Greedy ~bound:(P.Finite b) CV.algo in
  let start =
    T.corrupt (Rng.split rng) ~max_height:b params
      (T.clean_config params g ~inputs)
  in
  let t3 = Perf.now () in
  let go () =
    let budget = Budget.v ~deadline_s () in
    let run_rng = Rng.split rng in
    let sinks = Option.map (fun p -> [ sink p ]) probe in
    let gc0 = Perf.gc_now () in
    let t4 = Perf.now () in
    Option.iter (fun p -> restart p t4) probe;
    let final, stats =
      M.run ~codec:CV.codec ~budget ?sinks ~rng:run_rng params start
    in
    let t5 = Perf.now () in
    let gc1 = Perf.gc_now () in
    Option.iter (fun p -> charge p t5) probe;
    let failure =
      if not stats.M.quiescent then
        Some ("not quiescent: " ^ Budget.outcome_to_string stats.M.outcome)
      else if b < hist.Ss_sync.Sync_runner.t then Some "bound-cut run (B < T)"
      else
        match Ss_core.Checker.legitimate_terminal params hist final with
        | Error e -> Some ("illegitimate terminal: " ^ e)
        | Ok () ->
            if CV.spec_holds g ~final:(T.outputs final) then None
            else Some "specification violated"
    in
    let t6 = Perf.now () in
    Option.iter (fun p -> time_proofs p final.Ss_sim.Config.states) probe;
    {
      Perf.build_s = 0.;
      history_s = 0.;
      start_s = 0.;
      run_s = t5 -. t4;
      check_s = t6 -. t5;
      sync_t = hist.Ss_sync.Sync_runner.t;
      moves = stats.M.rule_executions;
      deliveries = stats.M.deliveries;
      gc = Perf.gc_diff gc0 gc1;
      model =
        [
          ("n", cfg.n);
          ("deliveries", stats.M.deliveries);
          ("rule_executions", stats.M.rule_executions);
          ("update_bits", stats.M.update_bits);
          ("proof_messages", stats.M.proof_messages);
          ("proof_bits", stats.M.proof_bits);
          ("stale_proof_messages", stats.M.stale_proof_messages);
          ("request_messages", stats.M.request_messages);
          ("full_copy_messages", stats.M.full_copy_messages);
          ("full_copy_bits", stats.M.full_copy_bits);
          ("proof_waves", stats.M.proof_waves);
          ("peak_queued_bits", stats.M.peak_queued_bits);
          ("mirror_bytes", stats.M.mirror_bytes);
          ("total_bits", M.total_bits stats);
        ];
      failure;
    }
  in
  ((t1 -. t0, t2 -. t1, t3 -. t2), go)

let instance cfg ?probe ~seed index =
  Perf.instance ~reps:setup_reps (prepare cfg ?probe ~seed index)

(* Per-layer figures: delivery and wave times from the traced pass [p];
   modelled traffic from the untraced first pass, per instance. *)
let layers ~first p =
  let k = float (List.length first) in
  let per key =
    List.fold_left
      (fun acc s -> acc +. float (List.assoc key s.Perf.model))
      0. first
    /. k
  in
  let ns i = p.busy_s.(i) *. 1e9 /. float (max 1 p.events.(i)) in
  List.init 4 (fun i -> ("msgnet.deliver_ns." ^ kinds.(i), ns i, "ns"))
  @ [
      ("msgnet.wave_ns", ns 4, "ns");
      ("msgnet.codec_ns", p.codec_s *. 1e9 /. float p.encoded, "ns");
      ("energy.proof_hash_ns", p.hash_s *. 1e9 /. float p.encoded, "ns");
      ("msgnet.proof_waves", per "proof_waves", "count");
      ( "msgnet.stale_proof_frac",
        per "stale_proof_messages" /. per "proof_messages",
        "ratio" );
      ( "msgnet.repair_msgs",
        per "request_messages" +. per "full_copy_messages",
        "count" );
      ("msgnet.peak_queued_bits", per "peak_queued_bits", "bits");
      ("msgnet.mirror_bytes", per "mirror_bytes", "bytes");
      ("energy.update_bits", per "update_bits", "bits");
      ("energy.proof_bits", per "proof_bits", "bits");
      ("energy.full_copy_bits", per "full_copy_bits", "bits");
      ("energy.wire_bits_per_node", per "total_bits" /. per "n", "bits");
    ]
