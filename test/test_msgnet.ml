(* Tests for the message-passing realization of the transformer (§6):
   convergence to verified quiescence with corrupted states AND
   corrupted mirrors, traffic accounting, and the full-state vs delta
   encoding comparison. *)

module Builders = Ss_graph.Builders
module Graph = Ss_graph.Graph
module Sync_runner = Ss_sync.Sync_runner
module Core = Ss_core
module Transformer = Ss_core.Transformer
module Checker = Ss_core.Checker
module M = Ss_msgnet.Msgnet
module Leader = Ss_algos.Leader_election
module Min_flood = Ss_algos.Min_flood
module Rng = Ss_prelude.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setting seed =
  let rng = Rng.create seed in
  let g =
    Builders.random_connected rng ~n:(4 + Rng.int rng 8) ~extra_edges:3
  in
  let inputs = Leader.random_ids rng g in
  let params = Transformer.params Leader.algo in
  let hist = Sync_runner.run Leader.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  (rng, g, inputs, params, hist, start)

let test_wire_canonicalization () =
  (* Two logically equal states built by different operation sequences
     must encode to the same bytes (and hence the same proof hash and
     the same measured bits): the backing buffer's spare capacity,
     version stamps and sharing never reach the wire. *)
  let module St = Core.Trans_state in
  let module Energy = Ss_energy.Energy in
  let direct = St.make ~init:5 ~status:St.C ~cells:[| 4; 3; 2 |] in
  let grown =
    (* Build by extension (with a detour that exercises truncation and
       a status round-trip), leaving spare capacity behind. *)
    let s = St.clean 5 in
    let s = St.extend s 4 in
    let s = St.extend s 9 in
    let s = St.truncate s 1 in
    let s = St.extend s 3 in
    let s = St.extend s 2 in
    St.with_status (St.with_status s St.E) St.C
  in
  check "logically equal" true (St.equal Int.equal direct grown);
  check "stamps differ (different constructions)" true
    (St.stamp direct <> St.stamp grown);
  Alcotest.(check string)
    "identical wire encodings"
    (M.canonical_bytes direct) (M.canonical_bytes grown);
  check "identical proof hashes" true
    (Energy.state_proof ~nonce:7L (M.canonical_bytes direct)
    = Energy.state_proof ~nonce:7L (M.canonical_bytes grown));
  check_int "identical measured bits"
    (Energy.full_state_bits Min_flood.algo direct)
    (Energy.full_state_bits Min_flood.algo grown);
  (* And a branch that shares the buffer with [direct] but differs
     logically must encode differently. *)
  check "different states, different bytes" true
    (M.canonical_bytes (St.truncate direct 2) <> M.canonical_bytes direct)

let test_clean_start_full_encoding () =
  let g = Builders.cycle 6 in
  let inputs p = p + 3 in
  let params = Transformer.params Min_flood.algo in
  let hist = Sync_runner.run Min_flood.algo g ~inputs in
  let rng = Rng.create 1 in
  let final, stats =
    M.run ~encoding:M.Full_state ~rng ~corrupt_mirrors:false params
      (Transformer.clean_config params g ~inputs)
  in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true
    (Checker.legitimate_terminal params hist final = Ok ());
  (* Accurate mirrors + full-state updates: proofs never mismatch. *)
  check_int "no repair requests" 0 stats.M.request_messages;
  check_int "no full copies" 0 stats.M.full_copy_messages;
  (* On a ring every node has degree 2: each execution broadcasts 2
     updates. *)
  check_int "updates = 2 * executions" (2 * stats.M.rule_executions)
    stats.M.update_messages

let test_corrupted_mirrors_are_repaired () =
  let _, g, inputs, params, hist, start = setting 5 in
  ignore g;
  ignore inputs;
  let rng = Rng.create 50 in
  let final, stats = M.run ~encoding:M.Delta ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true
    (Checker.legitimate_terminal params hist final = Ok ());
  check "at least one proof wave ran" true (stats.M.proof_waves >= 1)

let test_convergence_matrix () =
  for seed = 1 to 12 do
    let _, g, inputs, params, hist, start = setting seed in
    List.iter
      (fun encoding ->
        let rng = Rng.create (seed + 100) in
        let final, stats = M.run ~encoding ~rng params start in
        check (Printf.sprintf "seed %d quiescent" seed) true stats.M.quiescent;
        check
          (Printf.sprintf "seed %d legitimate" seed)
          true
          (Checker.legitimate_terminal params hist final = Ok ());
        check
          (Printf.sprintf "seed %d spec" seed)
          true
          (Leader.spec_holds g ~inputs ~final:(Transformer.outputs final)))
      [ M.Full_state; M.Delta ]
  done

let test_delta_encoding_is_cheaper_per_update () =
  (* Same seed, both encodings: delta must spend fewer bits per update
     message on average. *)
  let _, _, _, params, _, start = setting 9 in
  let run encoding =
    let rng = Rng.create 77 in
    let _, stats = M.run ~encoding ~rng params start in
    stats
  in
  let full = run M.Full_state and delta = run M.Delta in
  let per_update s =
    float_of_int s.M.update_bits /. float_of_int (max 1 s.M.update_messages)
  in
  check "delta cheaper per update" true (per_update delta < per_update full)

let test_stats_consistency () =
  let _, _, _, params, _, start = setting 3 in
  let rng = Rng.create 42 in
  let _, stats = M.run ~rng params start in
  check "deliveries cover updates + proofs" true
    (stats.M.deliveries
    >= stats.M.update_messages + stats.M.request_messages
       + stats.M.full_copy_messages);
  check "total bits positive" true (M.total_bits stats > 0);
  check "full copies answer requests" true
    (stats.M.full_copy_messages <= stats.M.request_messages);
  check "proof bits = 128 * proof messages" true
    (stats.M.proof_bits = 128 * stats.M.proof_messages)

let test_heartbeat_period_controls_proof_traffic () =
  let _, _, _, params, _, start = setting 4 in
  let run every =
    let rng = Rng.create 11 in
    let _, stats = M.run ~heartbeat_every:every ~rng params start in
    stats
  in
  let fast = run 50 and slow = run 5000 in
  check "faster heartbeat, at least as many proofs" true
    (fast.M.proof_messages >= slow.M.proof_messages);
  check "both quiescent" true (fast.M.quiescent && slow.M.quiescent)

let test_event_budget_reported () =
  let _, _, _, params, _, start = setting 6 in
  let rng = Rng.create 13 in
  let _, stats = M.run ~max_events:3 ~rng params start in
  check "budget exhaustion reported" false stats.M.quiescent

let test_stale_proofs_dropped_without_spurious_traffic () =
  (* Regression for the stale-proof bug.  Start from the engine's
     terminal configuration with accurate mirrors and force perpetual
     wave overlap: a heartbeat period shorter than the 2m proof
     messages each wave enqueues means every wave is superseded before
     it fully drains.  The superseded proofs must be counted and
     dropped — never compared against a mirror the next wave is
     already re-verifying — so no Request or Full_copy traffic can
     appear even though the network never goes quiet. *)
  let g = Builders.cycle 6 in
  let inputs p = p + 3 in
  let params = Transformer.params Min_flood.algo in
  let stats =
    Transformer.run params Ss_sim.Daemon.synchronous
      (Transformer.clean_config params g ~inputs)
  in
  check "engine reached terminal" true stats.Ss_sim.Engine.terminated;
  let terminal = stats.Ss_sim.Engine.final in
  let m = Graph.m g in
  let rng = Rng.create 71 in
  let _, s =
    M.run ~heartbeat_every:m ~max_events:4_000 ~rng ~corrupt_mirrors:false
      params terminal
  in
  check "waves overlap: stale proofs observed" true
    (s.M.stale_proof_messages > 0);
  check_int "stale proofs raise no requests" 0 s.M.request_messages;
  check_int "stale proofs trigger no full copies" 0 s.M.full_copy_messages;
  (* Waves refill faster than they drain, so the run exhausts its
     event budget instead of declaring quiescence — by design. *)
  check "budget exhausted under perpetual overlap" false s.M.quiescent

let test_stale_proofs_during_recovery () =
  (* Wave overlap during an actual recovery: a heartbeat period just
     above one wave's worth of proofs makes superseded proofs common
     while repair traffic is still in flight, yet every run must still
     reach verified quiescence and a legitimate terminal state. *)
  let total_stale = ref 0 in
  List.iter
    (fun seed ->
      let _, g, _, params, hist, start = setting seed in
      let rng = Rng.create (900 + seed) in
      let final, s =
        M.run ~heartbeat_every:((2 * Graph.m g) + 2) ~rng params start
      in
      check (Printf.sprintf "seed %d quiescent" seed) true s.M.quiescent;
      check
        (Printf.sprintf "seed %d legitimate" seed)
        true
        (Checker.legitimate_terminal params hist final = Ok ());
      total_stale := !total_stale + s.M.stale_proof_messages)
    [ 1; 2; 3; 4; 5; 6 ];
  check "overlapping waves produced stale proofs" true (!total_stale > 0)

let test_bfs_over_message_passing () =
  (* The protocol is algorithm-generic: BFS trees converge too. *)
  let rng = Rng.create 19 in
  let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
  let root = 0 in
  let inputs = Ss_algos.Bfs_tree.inputs g ~root in
  let params = Transformer.params Ss_algos.Bfs_tree.algo in
  let hist = Sync_runner.run Ss_algos.Bfs_tree.algo g ~inputs in
  let start =
    Transformer.corrupt rng
      ~max_height:(hist.Sync_runner.t + 4)
      params
      (Transformer.clean_config params g ~inputs)
  in
  let final, stats = M.run ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true (Checker.legitimate_terminal params hist final = Ok ());
  check "BFS spec" true
    (Ss_algos.Bfs_tree.spec_holds g ~root
       ~final:(Transformer.outputs final))

let test_greedy_cv_over_message_passing () =
  let rng = Rng.create 23 in
  let n = 9 and width = 6 in
  let g = Builders.cycle n in
  let ids = Ss_algos.Cole_vishkin.random_ring_ids rng ~n ~width in
  let inputs = Ss_algos.Cole_vishkin.inputs ~ids ~width g in
  let b = Ss_algos.Cole_vishkin.schedule_length width in
  let params =
    Transformer.params ~mode:Ss_core.Predicates.Greedy
      ~bound:(Ss_core.Predicates.Finite b)
      Ss_algos.Cole_vishkin.algo
  in
  let hist = Sync_runner.run Ss_algos.Cole_vishkin.algo g ~inputs in
  let start =
    Transformer.corrupt rng ~max_height:b params
      (Transformer.clean_config params g ~inputs)
  in
  let final, stats = M.run ~encoding:M.Delta ~rng params start in
  check "quiescent" true stats.M.quiescent;
  check "legitimate" true (Checker.legitimate_terminal params hist final = Ok ());
  check "proper 3-coloring" true
    (Ss_algos.Cole_vishkin.spec_holds g ~final:(Transformer.outputs final))

(* ------------------------------------------------------------------ *)
(* Ringbuf: the flat channel storage (DESIGN.md §15)                    *)
(* ------------------------------------------------------------------ *)

module Ringbuf = Ss_msgnet.Ringbuf

let test_ringbuf_fifo_growth () =
  let r = Ringbuf.create () in
  let record i = Array.init (1 + (i mod 5)) (fun j -> (i * 31) + j) in
  for i = 0 to 199 do
    let src = record i in
    Ringbuf.push r src (Array.length src)
  done;
  check_int "records queued" 200 (Ringbuf.records r);
  let dst = Array.make 8 0 in
  for i = 0 to 199 do
    let expect = record i in
    let len = Ringbuf.pop r dst in
    check_int (Printf.sprintf "record %d length" i) (Array.length expect) len;
    check (Printf.sprintf "record %d payload" i) true
      (Array.sub dst 0 len = expect)
  done;
  check "drained" true (Ringbuf.is_empty r)

let test_ringbuf_wraparound () =
  (* Interleaved push/pop walks the head around the circular array many
     times at near-constant occupancy, crossing the wrap point without
     triggering growth. *)
  let r = Ringbuf.create () in
  let dst = Array.make 4 0 in
  let next_push = ref 0 and next_pop = ref 0 in
  let push () =
    let i = !next_push in
    incr next_push;
    Ringbuf.push r [| i; i + 1 |] 2
  in
  let pop () =
    let i = !next_pop in
    incr next_pop;
    let len = Ringbuf.pop r dst in
    check_int "wrap length" 2 len;
    check "wrap payload" true (dst.(0) = i && dst.(1) = i + 1)
  in
  push ();
  for _ = 1 to 500 do
    push ();
    pop ()
  done;
  pop ();
  check "empty after interleave" true (Ringbuf.is_empty r);
  check_int "no words left" 0 (Ringbuf.words r)

let test_ringbuf_peek_and_validation () =
  let r = Ringbuf.create () in
  Ringbuf.push r [| 7; 8 |] 2;
  let dst = Array.make 2 0 in
  check_int "peek length" 2 (Ringbuf.peek r dst);
  check_int "peek leaves the record" 1 (Ringbuf.records r);
  check_int "pop length" 2 (Ringbuf.pop r dst);
  check "peek saw the pop's payload" true (dst.(0) = 7 && dst.(1) = 8);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check "negative length rejected" true
    (raises (fun () -> Ringbuf.push r [| 1 |] (-1)));
  check "length past the source rejected" true
    (raises (fun () -> Ringbuf.push r [| 1 |] 2));
  check "peek on empty rejected" true (raises (fun () -> Ringbuf.peek r dst))

(* ------------------------------------------------------------------ *)
(* Degenerate topologies: n = 0, n = 1, edgeless                        *)
(* ------------------------------------------------------------------ *)

let test_empty_graph () =
  (* Zero nodes, zero channels: both loops must declare quiescence on
     the first probe wave instead of dividing by a zero channel count
     or indexing an empty arena. *)
  let g = Graph.of_adjacency [||] in
  let params = Transformer.params Min_flood.algo in
  let inputs _ = 0 in
  let config = Transformer.clean_config params g ~inputs in
  let _, stats = M.run ~rng:(Rng.create 1) params config in
  check "n = 0 quiescent" true stats.M.quiescent;
  check_int "n = 0 delivers nothing" 0 stats.M.deliveries;
  check_int "n = 0 peak wire load" 0 stats.M.peak_queued_bits;
  let _, nstats = M.run_naive ~rng:(Rng.create 1) params config in
  check "naive n = 0 quiescent" true nstats.M.quiescent

let test_singleton_and_edgeless () =
  let params = Transformer.params Min_flood.algo in
  List.iter
    (fun (name, g) ->
      let inputs p = (p * 13 mod 7) + 1 in
      let hist = Sync_runner.run Min_flood.algo g ~inputs in
      let rng = Rng.create 7 in
      let start =
        Transformer.corrupt rng
          ~max_height:(hist.Sync_runner.t + 4)
          params
          (Transformer.clean_config params g ~inputs)
      in
      let final, stats = M.run ~rng params start in
      check (name ^ " quiescent") true stats.M.quiescent;
      check (name ^ " legitimate") true
        (Checker.legitimate_terminal params hist final = Ok ());
      (* No links: no update, proof, or repair message can ever exist. *)
      check_int (name ^ " sends nothing") 0
        (stats.M.update_messages + stats.M.proof_messages
        + stats.M.request_messages + stats.M.full_copy_messages);
      (* The heartbeat timer must be harmless with zero channels even
         at its tightest legal period. *)
      let _, hb = M.run ~heartbeat_every:1 ~rng:(Rng.create 8) params start in
      check (name ^ " tight heartbeat still quiescent") true hb.M.quiescent;
      let nfinal, nstats = M.run_naive ~rng:(Rng.create 9) params start in
      check (name ^ " naive twin quiescent") true nstats.M.quiescent;
      check (name ^ " naive twin agrees") true
        (Transformer.outputs nfinal = Transformer.outputs final))
    [
      ("singleton", Graph.of_adjacency [| [||] |]);
      ("edgeless-4", Graph.of_adjacency (Array.init 4 (fun _ -> [||])));
    ]

(* ------------------------------------------------------------------ *)
(* Codec proof pre-images (DESIGN.md §15)                               *)
(* ------------------------------------------------------------------ *)

module St = Core.Trans_state
module Cellpack = Ss_core.Cellpack
module Cv = Ss_algos.Cole_vishkin

let cv_cell k = { Cv.color = k land 0xFF; round = (k lsr 8) land 0xF }

let cv_equal a b = a.Cv.color = b.Cv.color && a.Cv.round = b.Cv.round

(* Interpret an op list as a build history.  Decisions depend only on
   the logical height, so the same list drives a boxed and an
   arena-backed replica through identical logical histories. *)
let apply_ops ~cap st ops =
  List.fold_left
    (fun st op ->
      let op = abs op in
      match op mod 4 with
      | 0 ->
          if St.height st >= cap then St.truncate st (St.height st / 2)
          else St.extend st (cv_cell (op / 4))
      | 1 -> St.truncate st (op / 4 mod (St.height st + 1))
      | 2 -> St.with_status st (if op land 4 = 0 then St.C else St.E)
      | _ -> St.wipe st)
    st ops

let codec_qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:300
      ~name:"codec bytes agree with the Marshal reference on equality"
      (pair (small_list small_int) (small_list small_int))
      (fun (ops_a, ops_b) ->
        let cap = 12 in
        let init = cv_cell 3 in
        let build ops =
          apply_ops ~cap (St.make ~init ~status:St.C ~cells:[||]) ops
        in
        let a = build ops_a and b = build ops_b in
        let ca = M.codec_bytes Cv.codec a and cb = M.codec_bytes Cv.codec b in
        let agree_with_marshal =
          ca = cb = (M.canonical_bytes a = M.canonical_bytes b)
        in
        let agree_with_equality = ca = cb = St.equal cv_equal a b in
        (* An arena-backed replica of the same history encodes to the
           same bytes as its boxed twin (aliasing/extension/truncation
           idiosyncrasies of either backend never reach the wire). *)
        let arena = Cellpack.arena ~codec:Cv.codec ~n:1 ~cap:(cap + 4) in
        let packed =
          apply_ops ~cap
            (St.rebuild
               (St.packed_clean arena ~node:0 ~init)
               ~status:St.C ~cells:[||])
            ops_a
        in
        agree_with_marshal && agree_with_equality
        && M.codec_bytes Cv.codec packed = ca);
    Test.make ~count:300
      ~name:"streamed codec digest ≡ fnv1a64 of the codec bytes"
      (pair (small_list small_int) small_nat)
      (fun (ops, k) ->
        let cap = 12 in
        let init = cv_cell 3 in
        let boxed =
          apply_ops ~cap (St.make ~init ~status:St.C ~cells:[||]) ops
        in
        (* The packed replica lives in an arena of the same codec, so
           its digest is read straight from the slab. *)
        let arena = Cellpack.arena ~codec:Cv.codec ~n:1 ~cap:(cap + 4) in
        let packed =
          apply_ops ~cap
            (St.rebuild
               (St.packed_clean arena ~node:0 ~init)
               ~status:St.C ~cells:[||])
            ops
        in
        let bytes st = M.codec_bytes Cv.codec st in
        let reference st = Ss_prelude.Util.fnv1a64 (bytes st) in
        (* Salting the digest halves gives the proof of the bytes. *)
        let halves h =
          [|
            Int64.to_int (Int64.logand h 0xFFFF_FFFFL);
            Int64.to_int (Int64.shift_right_logical h 32);
          |]
        in
        let salted st =
          let dst = [| 0; 0 |] in
          Ss_energy.Energy.write_proof ~nonce:k
            (halves (M.codec_digest Cv.codec st))
            0 dst 0;
          dst
          = halves
              (Ss_energy.Energy.state_proof ~nonce:(Int64.of_int k) (bytes st))
        in
        M.codec_digest Cv.codec boxed = reference boxed
        && M.codec_digest Cv.codec packed = reference packed
        && salted boxed && salted packed);
  ]

let test_codec_run_differential_cv () =
  (* Cole-Vishkin has a codec and a finite bound, so [`Auto] packs the
     mirrors.  Same rng, same schedule: serialization is off the draw
     path and the codec encoding is equality-equivalent to Marshal, so
     the codec run's stats must be *identical* to the Marshal run's —
     except [mirror_bytes], which measures the different backing. *)
  List.iter
    (fun seed ->
      let rng0 = Rng.create (23 + seed) in
      let n = 9 and width = 6 in
      let g = Builders.cycle n in
      let ids = Cv.random_ring_ids rng0 ~n ~width in
      let inputs = Cv.inputs ~ids ~width g in
      let b = Cv.schedule_length width in
      let params =
        Transformer.params ~mode:Ss_core.Predicates.Greedy
          ~bound:(Ss_core.Predicates.Finite b)
          Cv.algo
      in
      let hist = Sync_runner.run Cv.algo g ~inputs in
      let start =
        Transformer.corrupt rng0 ~max_height:b params
          (Transformer.clean_config params g ~inputs)
      in
      let run codec layout =
        M.run ?codec ?layout ~rng:(Rng.create ((seed * 7) + 1)) params start
      in
      let final_m, sm = run None None in
      let final_c, sc = run (Some Cv.codec) None in
      let final_b, sb = run (Some Cv.codec) (Some `Boxed) in
      let m = Printf.sprintf "cv seed %d" seed in
      check (m ^ ": codec run quiescent") true sc.M.quiescent;
      check (m ^ ": codec stats identical modulo mirror bytes") true
        ({ sc with M.mirror_bytes = 0 } = { sm with M.mirror_bytes = 0 });
      check (m ^ ": boxed-layout codec stats identical") true
        ({ sb with M.mirror_bytes = 0 } = { sm with M.mirror_bytes = 0 });
      check (m ^ ": same outputs across encodings") true
        (Transformer.outputs final_c = Transformer.outputs final_m
        && Transformer.outputs final_b = Transformer.outputs final_m);
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final_c = Ok ());
      (* The naive twin draws differently (different interleaving) but
         must land on the same terminal states. *)
      let final_n, sn =
        M.run_naive ~rng:(Rng.create ((seed * 7) + 1)) params start
      in
      check (m ^ ": naive twin agrees") true
        (sn.M.quiescent
        && Transformer.outputs final_n = Transformer.outputs final_c))
    [ 1; 2; 3 ]

let test_codec_run_differential_infinite_bound () =
  (* Leader election and BFS export codecs but run under an infinite
     bound: [`Auto] keeps mirrors boxed while the codec still replaces
     every proof pre-image.  Here even [mirror_bytes] must match. *)
  List.iter
    (fun seed ->
      (* leader *)
      let _, _, _, params, hist, start = setting seed in
      let run codec =
        M.run ?codec ~rng:(Rng.create ((seed * 31) + 5)) params start
      in
      let final_m, sm = run None in
      let final_c, sc = run (Some Leader.codec) in
      let m = Printf.sprintf "leader seed %d" seed in
      check (m ^ ": stats fully identical") true (sc = sm);
      check (m ^ ": outputs equal") true
        (Transformer.outputs final_c = Transformer.outputs final_m);
      check (m ^ ": legitimate") true
        (Checker.legitimate_terminal params hist final_c = Ok ());
      (* bfs *)
      let rng = Rng.create (19 + seed) in
      let g = Builders.random_connected rng ~n:10 ~extra_edges:4 in
      let inputs = Ss_algos.Bfs_tree.inputs g ~root:0 in
      let bparams = Transformer.params Ss_algos.Bfs_tree.algo in
      let bhist = Sync_runner.run Ss_algos.Bfs_tree.algo g ~inputs in
      let bstart =
        Transformer.corrupt rng
          ~max_height:(bhist.Sync_runner.t + 4)
          bparams
          (Transformer.clean_config bparams g ~inputs)
      in
      let brun codec =
        M.run ?codec ~rng:(Rng.create ((seed * 31) + 6)) bparams bstart
      in
      let bfinal_m, bsm = brun None in
      let bfinal_c, bsc = brun (Some Ss_algos.Bfs_tree.codec) in
      let m = Printf.sprintf "bfs seed %d" seed in
      check (m ^ ": stats fully identical") true (bsc = bsm);
      check (m ^ ": outputs equal") true
        (Transformer.outputs bfinal_c = Transformer.outputs bfinal_m))
    [ 1; 2; 3 ]

let test_packed_layout_validation () =
  let _, _, _, params, _, start = setting 2 in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  (* leader runs under an infinite bound and here without a codec *)
  check "packed layout without a codec rejected" true
    (raises (fun () ->
         M.run ~layout:`Packed ~rng:(Rng.create 1) params start));
  check "packed layout with an infinite bound rejected" true
    (raises (fun () ->
         M.run ~layout:`Packed ~codec:Leader.codec ~rng:(Rng.create 1) params
           start))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:40
      ~name:"message-passing realization reaches a legitimate terminal state"
      (int_range 1 100_000)
      (fun seed ->
        let _, g, inputs, params, hist, start = setting seed in
        let rng = Rng.create (seed * 13) in
        let encoding = if seed mod 2 = 0 then M.Full_state else M.Delta in
        let final, stats = M.run ~encoding ~rng params start in
        stats.M.quiescent
        && Checker.legitimate_terminal params hist final = Ok ()
        && Leader.spec_holds g ~inputs ~final:(Transformer.outputs final));
  ]

let () =
  Alcotest.run "msgnet"
    [
      ( "protocol",
        [
          Alcotest.test_case "wire canonicalization" `Quick
            test_wire_canonicalization;
          Alcotest.test_case "clean start, full encoding" `Quick
            test_clean_start_full_encoding;
          Alcotest.test_case "corrupted mirrors repaired" `Quick
            test_corrupted_mirrors_are_repaired;
          Alcotest.test_case "convergence matrix" `Quick test_convergence_matrix;
          Alcotest.test_case "delta cheaper per update" `Quick
            test_delta_encoding_is_cheaper_per_update;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "heartbeat period" `Quick
            test_heartbeat_period_controls_proof_traffic;
          Alcotest.test_case "event budget" `Quick test_event_budget_reported;
          Alcotest.test_case "stale proofs dropped" `Quick
            test_stale_proofs_dropped_without_spurious_traffic;
          Alcotest.test_case "stale proofs during recovery" `Quick
            test_stale_proofs_during_recovery;
          Alcotest.test_case "BFS over message passing" `Quick
            test_bfs_over_message_passing;
          Alcotest.test_case "greedy CV over message passing" `Quick
            test_greedy_cv_over_message_passing;
        ] );
      ( "ringbuf",
        [
          Alcotest.test_case "FIFO across growth" `Quick
            test_ringbuf_fifo_growth;
          Alcotest.test_case "wraparound" `Quick test_ringbuf_wraparound;
          Alcotest.test_case "peek and validation" `Quick
            test_ringbuf_peek_and_validation;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "singleton and edgeless" `Quick
            test_singleton_and_edgeless;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest codec_qcheck_tests
        @ [
            Alcotest.test_case "run differential: cv (packed)" `Quick
              test_codec_run_differential_cv;
            Alcotest.test_case "run differential: infinite bound" `Quick
              test_codec_run_differential_infinite_bound;
            Alcotest.test_case "packed layout validation" `Quick
              test_packed_layout_validation;
          ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
