module Graph = Ss_graph.Graph
module Config = Ss_sim.Config
module Engine = Ss_sim.Engine
module Sync_algo = Ss_sync.Sync_algo
module Util = Ss_prelude.Util
module St = Ss_core.Trans_state
module Transformer = Ss_core.Registry.Trans

type cost = {
  moves : int;
  messages : int;
  bits_full_state : int;
  bits_delta : int;
  heartbeat_messages : int;
  heartbeat_bits : int;
  rounds : int;
  terminated : bool;
}

let height_bits = function
  | Ss_core.Predicates.Finite b -> Util.bit_width b
  | Ss_core.Predicates.Infinite -> 32

type proof_cost = { proof_bits : int; nonce_bits : int }

let default_proof_cost = { proof_bits = 64; nonce_bits = 64 }
let proof_message_bits pc = pc.proof_bits + pc.nonce_bits
let request_message_bits = 2

let nonce_mix = 0x9E3779B97F4A7C15L

let state_proof ~nonce s =
  Int64.logxor (Util.fnv1a64 s) (Int64.mul nonce nonce_mix)

(* The same salting over 32-bit halves; the int64 temporaries never
   leave this function, so none is boxed. *)
let write_proof ~nonce src soff dst doff =
  let d =
    Int64.logor
      (Int64.of_int src.(soff))
      (Int64.shift_left (Int64.of_int src.(soff + 1)) 32)
  in
  let p = Int64.logxor d (Int64.mul (Int64.of_int nonce) nonce_mix) in
  dst.(doff) <- Int64.to_int (Int64.logand p 0xFFFF_FFFFL);
  dst.(doff + 1) <- Int64.to_int (Int64.shift_right_logical p 32)

let full_state_bits sync st =
  let bits = sync.Sync_algo.state_bits in
  1 (* status *) + bits (St.init st)
  + St.fold_cells (fun acc c -> acc + bits c) 0 st

let delta_bits params st rule =
  let sync = params.Transformer.sync in
  let label = 2 in
  if rule = Transformer.ru then label + sync.Sync_algo.state_bits (St.top st)
  else if rule = Transformer.rp then label + height_bits params.Transformer.bound
  else label (* RR and RC carry no payload *)

let measure ?(proof = default_proof_cost) ?(heartbeat_period = 16) ?max_steps
    params daemon config =
  let g = config.Config.graph in
  let messages = ref 0 in
  let bits_full = ref 0 in
  let bits_delta = ref 0 in
  let last_heartbeat_round = ref 0 in
  let heartbeat_messages = ref 0 in
  let sum_degrees =
    Graph.fold_nodes g ~init:0 ~f:(fun acc p -> acc + Graph.degree g p)
  in
  let observer ~step:_ ~rounds ~moved after =
    List.iter
      (fun (p, rule) ->
        let deg = Graph.degree g p in
        let st = Config.state after p in
        messages := !messages + deg;
        bits_full :=
          !bits_full + (deg * full_state_bits params.Transformer.sync st);
        bits_delta := !bits_delta + (deg * delta_bits params st rule))
      moved;
    (* Periodic proofs: every [heartbeat_period] completed rounds each
       node sends one proof on each incident channel. *)
    while rounds - !last_heartbeat_round >= heartbeat_period do
      last_heartbeat_round := !last_heartbeat_round + heartbeat_period;
      heartbeat_messages := !heartbeat_messages + sum_degrees
    done
  in
  let stats = Transformer.run ?max_steps ~observer params daemon config in
  let cost =
    {
      moves = stats.Engine.moves;
      messages = !messages;
      bits_full_state = !bits_full;
      bits_delta = !bits_delta;
      heartbeat_messages = !heartbeat_messages;
      heartbeat_bits = !heartbeat_messages * proof_message_bits proof;
      rounds = stats.Engine.rounds;
      terminated = stats.Engine.terminated;
    }
  in
  (stats, cost)
