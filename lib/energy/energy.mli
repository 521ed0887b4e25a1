(** The message/energy cost model of paper §6.

    The atomic-state model has no messages, but an implementation in a
    message-passing system makes each moving node inform its neighbors
    of its state change, and makes all nodes periodically exchange
    {e proofs} of their states (a salted hash plus its nonce) to detect
    transient faults.  §6 argues that:

    - the number of algorithm messages is governed by the {e move}
      count (each move triggers [deg(p)] messages);
    - sending whole states costs [O(B·S)] bits per message, while
      {e delta encoding} (2 bits of rule label, plus [O(log B)] bits
      for [RP]'s new height or [O(S)] bits for [RU]'s new cell) brings
      each message down to [O(S + log B)];
    - proof heartbeats are small and can be rare.

    This module measures all three quantities over actual simulator
    executions of the transformer. *)

type cost = {
  moves : int;  (** Total moves of the execution. *)
  messages : int;  (** Algorithm messages: [Σ deg(p)] over moves. *)
  bits_full_state : int;
      (** Total bits if every message carries the sender's whole
          transformed state. *)
  bits_delta : int;
      (** Total bits under §6's delta encoding: 2 bits of rule label
          plus the rule's payload. *)
  heartbeat_messages : int;
      (** Proof messages: one per node per neighbor every
          [heartbeat_period] completed rounds. *)
  heartbeat_bits : int;  (** [heartbeat_messages * (proof_bits + nonce_bits)]. *)
  rounds : int;
  terminated : bool;
}

val height_bits : Ss_core.Predicates.bound -> int
(** Bits needed to transmit a height [<= B] ([log₂(B+1)], and 32 for
    an infinite bound — a practical word). *)

type proof_cost = { proof_bits : int; nonce_bits : int }
(** Wire cost of one proof message: hash bits plus wave-nonce bits.
    The single source of truth shared by {!measure} (the analytical
    §6 cost model) and [Ss_msgnet.Msgnet.run] (the executable
    message-network realization), so the two entry points can never
    drift apart on what a proof costs. *)

val default_proof_cost : proof_cost
(** [{ proof_bits = 64; nonce_bits = 64 }] — a 64-bit salted hash plus
    a 64-bit wave nonce, 128 bits per proof message in total. *)

val proof_message_bits : proof_cost -> int
(** [proof_bits + nonce_bits]: total bits of one proof message. *)

val request_message_bits : int
(** Bits of a repair [Request] message (a bare 2-bit message tag). *)

val state_proof : nonce:int64 -> string -> int64
(** The §6 proof of a (serialized) state: a 64-bit hash of the state
    salted with the nonce.  Exposed so tests can check that proofs
    discriminate distinct states. *)

val write_proof : nonce:int -> int array -> int -> int array -> int -> unit
(** [write_proof ~nonce src soff dst doff] is {!state_proof} on a
    digest already computed: [src.(soff)] and [src.(soff + 1)] hold the
    low and high 32-bit halves of [Util.fnv1a64 s] (as written by
    [Util.fnv1a64_words_into]), and the halves of
    [state_proof ~nonce:(Int64.of_int nonce) s] are written to
    [dst.(doff)] and [dst.(doff + 1)].  Allocates nothing: the
    message network salts a memoized digest once per proof. *)

val full_state_bits :
  ('s, 'i) Ss_sync.Sync_algo.t -> 's Ss_core.Trans_state.t -> int
(** Bits of a whole transformed state: 1 status bit plus the sizes of
    [init] and every cell. *)

val delta_bits :
  ('s, 'i) Ss_core.Predicates.params -> 's Ss_core.Trans_state.t -> string -> int
(** Bits of §6's delta encoding for a move that produced the given
    state under the given rule label: 2 label bits, plus the new
    height for [RP] or the new cell for [RU]. *)

val measure :
  ?proof:proof_cost ->
  ?heartbeat_period:int ->
  ?max_steps:int ->
  ('s, 'i) Ss_core.Predicates.params ->
  Ss_sim.Daemon.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Config.t ->
  ('s Ss_core.Trans_state.t, 'i) Ss_sim.Engine.stats * cost
(** Run the transformer and account message costs (defaults:
    [proof = default_proof_cost], [heartbeat_period = 16] rounds). *)
