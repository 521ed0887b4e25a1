module Graph = Ss_graph.Graph
module Algorithm = Ss_sim.Algorithm
module Config = Ss_sim.Config
module Sync_algo = Ss_sync.Sync_algo
module St = Ss_core.Trans_state
module Cellpack = Ss_core.Cellpack
module Transformer = Ss_core.Registry.Trans
module Energy = Ss_energy.Energy
module Rng = Ss_prelude.Rng
module Util = Ss_prelude.Util
module Budget = Ss_report.Budget
module Run_report = Ss_report.Run_report

type encoding = Full_state | Delta

type 's delta = D_rr | D_rp of int | D_rc | D_ru of 's

type 's message =
  | Update_full of 's St.t
  | Update_delta of 's delta
  | Proof of int64 * int64  (* hash, wave nonce *)
  | Request
  | Full_copy of 's St.t

type msg_kind = K_update | K_proof | K_request | K_full_copy

type layout = [ `Auto | `Packed | `Boxed ]

type event =
  | Sent of { src : int; dst : int; kind : msg_kind; bits : int }
  | Delivered of { src : int; dst : int; kind : msg_kind }
  | Wave of { nonce : int }
  | Dropped of { src : int; dst : int; kind : msg_kind }
  | Duplicated of { src : int; dst : int; kind : msg_kind }
  | Reordered of { src : int; dst : int }
  | Corrupted of { node : int }

type sink = event -> unit

type 's chaos = {
  plan : Ss_chaos.Fault_plan.t;
  mutate : Rng.t -> int -> 's St.t -> 's St.t;
}

type stats = {
  deliveries : int;
  rule_executions : int;
  update_messages : int;
  update_bits : int;
  proof_messages : int;
  proof_bits : int;
  stale_proof_messages : int;
  request_messages : int;
  full_copy_messages : int;
  full_copy_bits : int;
  proof_waves : int;
  dropped_messages : int;
  reordered_messages : int;
  duplicated_messages : int;
  corruption_events : int;
  peak_queued_bits : int;
  mirror_bytes : int;
  quiescent : bool;
  outcome : Budget.outcome;
}

let total_bits s =
  s.update_bits + s.proof_bits + s.full_copy_bits
  + (s.request_messages * Energy.request_message_bits)

type 's counters = {
  mutable deliveries : int;
  mutable rule_executions : int;
  mutable update_messages : int;
  mutable update_bits : int;
  mutable proof_messages : int;
  mutable proof_bits_total : int;
  mutable stale_proof_messages : int;
  mutable request_messages : int;
  mutable full_copy_messages : int;
  mutable full_copy_bits : int;
  mutable proof_waves : int;
  mutable requests_in_wave : int;
  mutable dropped : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable corruptions : int;
}

let fresh_counters () =
  {
    deliveries = 0;
    rule_executions = 0;
    update_messages = 0;
    update_bits = 0;
    proof_messages = 0;
    proof_bits_total = 0;
    stale_proof_messages = 0;
    request_messages = 0;
    full_copy_messages = 0;
    full_copy_bits = 0;
    proof_waves = 0;
    requests_in_wave = 0;
    dropped = 0;
    reordered = 0;
    duplicated = 0;
    corruptions = 0;
  }

let delta_of_move rule_name new_state =
  if rule_name = Transformer.rr then D_rr
  else if rule_name = Transformer.rp then D_rp (St.height new_state)
  else if rule_name = Transformer.rc then D_rc
  else D_ru (St.top new_state)

(* Canonical wire/proof pre-image: the logical snapshot only (status,
   init, cells) with [No_sharing], so logically equal states encode to
   the same bytes no matter how they were built — backing-buffer
   capacity, version stamps and physical sharing never leak onto the
   wire.  Injective for the plain-data states the sync algorithms
   use. *)
let canonical_bytes (st : _ St.t) =
  Marshal.to_string (St.snapshot st) [ Marshal.No_sharing ]

(* Codec proof pre-image: the same logical content (status, init,
   cells in order) written through the algorithm's fixed-width
   {!Cellpack} codec — no boxed snapshot, no Marshal walk.  Equality
   agreement with [canonical_bytes] is what the proof protocol needs,
   and holds by construction: the byte length determines the height,
   the first byte the status, and [unpack] after [pack] reproducing
   the state makes the per-cell word image injective — so equal bytes
   iff equal snapshots. *)
let status_byte st = match St.status st with St.C -> 'C' | St.E -> 'E'

let codec_bytes (c : 's Cellpack.codec) (st : 's St.t) =
  let words = Array.make ((St.height st + 1) * c.Cellpack.words) 0 in
  let len = St.write_words c st words in
  let buf = Buffer.create (1 + (8 * len)) in
  Buffer.add_char buf (status_byte st);
  for i = 0 to len - 1 do
    Buffer.add_int64_le buf (Int64.of_int words.(i))
  done;
  Buffer.contents buf

(* The proof digest of the codec image, [Util.fnv1a64 (codec_bytes c
   st)], streamed from the codec words in [!words] (grown on demand,
   reused across calls) with no buffer or string: the halves land in
   [dst.(off)], [dst.(off + 1)]. *)
let codec_digest_into c words st dst off =
  let need = (St.height st + 1) * c.Cellpack.words in
  if Array.length !words < need then
    words := Array.make (max need (2 * Array.length !words)) 0;
  let len = St.write_words c st !words in
  Util.fnv1a64_words_into ~lead:(status_byte st) !words len dst off

let int64_of_halves a off =
  Int64.logor (Int64.of_int a.(off)) (Int64.shift_left (Int64.of_int a.(off + 1)) 32)

let store_halves a off h =
  a.(off) <- Int64.to_int (Int64.logand h 0xFFFF_FFFFL);
  a.(off + 1) <- Int64.to_int (Int64.shift_right_logical h 32)

let codec_digest c st =
  let d = [| 0; 0 |] in
  codec_digest_into c (ref [||]) st d 0;
  int64_of_halves d 0

(* A delta's wire size is derivable from the delta alone: D_ru carries
   the new top cell, whose size is the sync algorithm's state_bits. *)
let delta_bits params = function
  | D_rr | D_rc -> 2
  | D_rp _ -> 2 + Energy.height_bits params.Transformer.bound
  | D_ru s -> 2 + params.Transformer.sync.Sync_algo.state_bits s

let kind_of_message = function
  | Update_full _ | Update_delta _ -> K_update
  | Proof _ -> K_proof
  | Request -> K_request
  | Full_copy _ -> K_full_copy

(* Ring-record tags.  Every indexed channel is a {!Ringbuf} of int
   records: [tag_boxed] records park their payload (a message variant
   the codec cannot flatten) in a lazily created per-channel side
   queue whose order mirrors the tagged records' order in the ring. *)
let tag_request = 0

let tag_proof = 1
let tag_rr = 2
let tag_rc = 3
let tag_rp = 4
let tag_ru = 5
let tag_boxed = 6

let run_impl ~indexed ?codec ?(layout = `Auto) ?(encoding = Delta) ?budget
    ?max_events ?(proof = Energy.default_proof_cost) ?heartbeat_every ?now
    ?chaos ~rng ?(corrupt_mirrors = true) ?(sinks = []) params config =
  let g = config.Config.graph in
  let n = Config.n config in
  let sync = params.Transformer.sync in
  let algo = Transformer.algorithm params in
  let states = Array.copy config.Config.states in
  (* Unified budget: the event cap (one delivery per event, so
     [stats.deliveries] never exceeds it) resolves against the legacy
     [max_events]; the deadline is checked once per event. *)
  let b = Option.value budget ~default:Budget.unlimited in
  let max_events =
    Budget.resolve ~default:2_000_000 max_events b.Budget.deliveries
  in
  let deadline = Budget.deadline_check ?now b in
  let observing = sinks <> [] in
  let emit ev = List.iter (fun s -> s ev) sinks in
  let proof_msg_bits = Energy.proof_message_bits proof in
  (* Each wave enqueues one proof per directed link (2m messages) while
     the timer fires every [heartbeat_every] *deliveries*: a period at
     or below 2m refills waves faster than they can drain, so channels
     never empty and quiescence is unreachable.  The default therefore
     scales with the network instead of being a constant that silently
     breaks past m = 200. *)
  let heartbeat_every =
    match heartbeat_every with
    | Some h -> h
    | None -> max 400 (4 * Graph.m g)
  in

  (* Directed FIFO channels, indexed densely: channel [chan_of.(u).(i)]
     carries u's messages to its port-i neighbor.  [chan_dst_port] is
     the receiver-side port (precomputed via Graph.port_table — no
     per-delivery [port_of] scan), which doubles as the index of the
     reply channel: the receiver answers u on [chan_of.(v).(port)]. *)
  let nchan = 2 * Graph.m g in
  let chan_dst = Array.make (max 1 nchan) 0 in
  let chan_src = Array.make (max 1 nchan) 0 in
  let chan_dst_port = Array.make (max 1 nchan) 0 in
  let chan_of =
    let ports = Graph.port_table g in
    let next = ref 0 in
    Array.init n (fun u ->
        Array.mapi
          (fun i v ->
            let id = !next in
            incr next;
            chan_src.(id) <- u;
            chan_dst.(id) <- v;
            chan_dst_port.(id) <- ports.(u).(i);
            id)
          (Graph.neighbors g u))
  in
  (* Indexed channel storage: one flat int ring per directed link, plus
     a lazily allocated boxed side queue for the message variants that
     cannot be int-packed (full states, and D_ru without a codec). *)
  let rings =
    if indexed then Array.init (max 1 nchan) (fun _ -> Ringbuf.create ())
    else [||]
  in
  let side : 's message Queue.t option array =
    if indexed then Array.make (max 1 nchan) None else [||]
  in
  let side_q cid =
    match side.(cid) with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        side.(cid) <- Some q;
        q
  in
  (* The naive reference path keeps the historical per-channel boxed
     queues and the original (u, v)-keyed hash table, so its selection
     and storage reproduce what every event paid before the indexed
     scheduler existed. *)
  let chan_q =
    if indexed then [||]
    else Array.init (max 1 nchan) (fun _ -> Queue.create ())
  in
  let naive_channels = Hashtbl.create (if indexed then 1 else 4 * Graph.m g) in
  if not indexed then
    Array.iteri
      (fun u row ->
        let nbrs = Graph.neighbors g u in
        Array.iteri
          (fun i cid -> Hashtbl.replace naive_channels (u, nbrs.(i)) cid)
          row)
      chan_of;
  let chan_queue cid =
    chan_q.(Hashtbl.find naive_channels (chan_src.(cid), chan_dst.(cid)))
  in

  (* The non-empty-channel set, maintained on every send/deliver so the
     indexed path picks a random pending link in O(1) instead of
     rescanning all 2m channels per event. *)
  let active = Chanset.create nchan in

  (* Mirror layout.  Under the engine's --layout policy: [`Packed]
     requires a codec and a finite bound (each of the 2m mirrors lives
     in the slot of one Cellpack arena, indexed by the owner's outgoing
     channel id — the same dense (node, port) numbering the channels
     use); [`Auto] packs exactly when both are available; [`Boxed]
     keeps the historical per-mirror buffers.  The packed arena caps a
     mirror at B cells — chaos can starve a mirror of its RR reset and
     drift it past B, so over-tall contents fall back to boxed handles
     until a full-state install re-packs the slot. *)
  let marena =
    let finite =
      match params.Transformer.bound with
      | Ss_core.Predicates.Finite b -> Some b
      | Ss_core.Predicates.Infinite -> None
    in
    match (layout, codec, finite) with
    | `Boxed, _, _ -> None
    | `Auto, Some c, Some cap when nchan > 0 ->
        Some (Cellpack.arena ~codec:c ~n:nchan ~cap)
    | `Auto, _, _ -> None
    | `Packed, None, _ -> invalid_arg "Msgnet.run: packed layout needs a codec"
    | `Packed, Some _, None ->
        invalid_arg "Msgnet.run: packed layout needs a finite bound"
    | `Packed, Some c, Some cap ->
        if nchan = 0 then None else Some (Cellpack.arena ~codec:c ~n:nchan ~cap)
  in
  (* [install v port src] stores [src]'s logical content as v's port
     mirror: packed into the arena slot when it fits, the boxed handle
     itself otherwise.  Rebuilding through a fresh [packed_clean]
     handle is safe even when the previous slot holder was boxed or
     stale — it only writes the slab and mints a fresh lineage. *)
  let install v port src =
    match marena with
    | Some a when St.height src <= Cellpack.cap a ->
        St.rebuild
          (St.packed_clean a ~node:chan_of.(v).(port) ~init:(St.init src))
          ~status:(St.status src) ~cells:(St.cells src)
    | _ -> src
  in
  (* Mirrors: mirrors.(v).(k) is v's belief about its port-k neighbor. *)
  let mirrors =
    Array.init n (fun v ->
        Array.mapi
          (fun i u ->
            install v i
              (if corrupt_mirrors then
                 Transformer.corrupt_state rng
                   ~max_height:(St.height states.(u) + 4)
                   params (Config.input config u) states.(u)
               else states.(u)))
          (Graph.neighbors g v))
  in
  (* Extend a mirror by a delivered D_ru cell.  A packed mirror at the
     arena bound boxes itself instead of raising: with faulty channels
     a dropped D_rr can leave a mirror growing without its reset, and
     the protocol must keep running until a proof wave repairs it. *)
  let mirror_extend m s =
    match St.backing_arena m with
    | Some a when St.height m >= Cellpack.cap a ->
        St.extend
          (St.make ~init:(St.init m) ~status:(St.status m) ~cells:(St.cells m))
          s
    | _ -> St.extend m s
  in
  let apply_delta mirror = function
    | D_rr -> St.wipe mirror
    | D_rp i ->
        (* A corrupted mirror may be shorter than the sender's list; a
           total best-effort truncation keeps the protocol running until
           a proof exchange repairs the copy. *)
        St.with_status (St.truncate mirror (min i (St.height mirror))) St.E
    | D_rc -> St.with_status mirror St.C
    | D_ru s -> mirror_extend mirror s
  in

  (* Proof digests, memoized by the §10 version stamp: encoding and
     hashing a transformer state is the expensive part of a proof, and
     proof waves keep re-proving states and mirrors that have not
     changed since the previous wave.  The memo holds the nonce-free
     digest as two 32-bit halves, so a wave nonce only salts it
     ({!Energy.write_proof}).  A state's stamp only matches the memo's
     when the entry was computed from that very construction, so a hit
     can never serve a stale digest — and no write-path invalidation
     hook is needed at all.  With a codec the digest is streamed from
     the codec words; without one it hashes the Marshal reference
     bytes. *)
  let digest_into =
    match codec with
    | Some c ->
        let words = ref [||] in
        fun st dst off -> codec_digest_into c words st dst off
    | None ->
        fun st dst off -> store_halves dst off (Util.fnv1a64 (canonical_bytes st))
  in
  let state_dig = Array.make (2 * max 1 n) 0 in
  let state_dig_stamp = Array.make (max 1 n) (-1) in
  let refresh_state_digest v =
    let st = states.(v) in
    let k = St.stamp st in
    if state_dig_stamp.(v) <> k then begin
      digest_into st state_dig (2 * v);
      state_dig_stamp.(v) <- k
    end
  in
  (* Mirror memo, dense over the same (node, port) channel numbering. *)
  let mirror_dig = Array.make (2 * max 1 nchan) 0 in
  let mirror_dig_stamp = Array.make (max 1 nchan) (-1) in
  let refresh_mirror_digest v port id =
    let st = mirrors.(v).(port) in
    let k = St.stamp st in
    if mirror_dig_stamp.(id) <> k then begin
      digest_into st mirror_dig (2 * id);
      mirror_dig_stamp.(id) <- k
    end
  in
  let set_mirror v port st = mirrors.(v).(port) <- st in

  (* One wire-size accounting for every message kind, shared by the
     counters, the event sinks and the queued-bits watermark. *)
  let message_bits = function
    | Update_full s -> Energy.full_state_bits sync s
    | Update_delta d -> delta_bits params d
    | Proof _ -> proof_msg_bits
    | Request -> Energy.request_message_bits
    | Full_copy s -> Energy.full_state_bits sync s
  in
  (* Peak in-flight wire load: bits enter on send, leave on delivery
     or drop (a duplicate's surviving copy never left).  The watermark
     is the protocol's bufferbloat figure at quiescence-free periods —
     reported as [peak_queued_bits]. *)
  let queued_bits = ref 0 in
  let peak_queued_bits = ref 0 in
  let account_send bits =
    queued_bits := !queued_bits + bits;
    if !queued_bits > !peak_queued_bits then peak_queued_bits := !queued_bits
  in
  let account_drain bits = queued_bits := !queued_bits - bits in

  (* Indexed wire codec: flatten a message into [rscratch] and push it
     on the channel's ring.  Deltas carry the rule tag and, with a
     codec, the int-packed payload cell.  Anything else parks the
     variant in the side queue behind a [tag_boxed] record.  Proofs
     never pass through here: a wave writes their records — the 64-bit
     hash as two 32-bit words, then the nonce — straight from the
     digest memo ([send_proof]). *)
  let rscratch =
    let cwords = match codec with Some c -> c.Cellpack.words | None -> 0 in
    Array.make (max 4 (1 + cwords)) 0
  in
  (* The salted proof a delivered one is compared against. *)
  let expected = [| 0; 0 |] in
  let encode_push cid msg =
    let r = rings.(cid) in
    match msg with
    | Request ->
        rscratch.(0) <- tag_request;
        Ringbuf.push r rscratch 1
    | Proof _ -> invalid_arg "Msgnet: indexed proofs are pushed as records"
    | Update_delta D_rr ->
        rscratch.(0) <- tag_rr;
        Ringbuf.push r rscratch 1
    | Update_delta D_rc ->
        rscratch.(0) <- tag_rc;
        Ringbuf.push r rscratch 1
    | Update_delta (D_rp i) ->
        rscratch.(0) <- tag_rp;
        rscratch.(1) <- i;
        Ringbuf.push r rscratch 2
    | Update_delta (D_ru s) as boxed -> (
        match codec with
        | Some c ->
            rscratch.(0) <- tag_ru;
            c.Cellpack.pack rscratch 1 s;
            Ringbuf.push r rscratch (1 + c.Cellpack.words)
        | None ->
            rscratch.(0) <- tag_boxed;
            Ringbuf.push r rscratch 1;
            Queue.push boxed (side_q cid))
    | (Update_full _ | Full_copy _) as boxed ->
        rscratch.(0) <- tag_boxed;
        Ringbuf.push r rscratch 1;
        Queue.push boxed (side_q cid)
  in
  (* [rscratch] holds a non-proof head record; [popped] tells the side
     queue whether to consume or only peek its aligned boxed payload. *)
  let decode_scratch cid ~popped =
    match rscratch.(0) with
    | 0 -> Request
    | 2 -> Update_delta D_rr
    | 3 -> Update_delta D_rc
    | 4 -> Update_delta (D_rp rscratch.(1))
    | 5 -> (
        match codec with
        | Some c -> Update_delta (D_ru (c.Cellpack.unpack rscratch 1))
        | None -> assert false (* tag_ru is only pushed with a codec *))
    | 6 ->
        let q = side_q cid in
        if popped then Queue.pop q else Queue.peek q
    | _ -> invalid_arg "Msgnet: a proof record is never decoded"
  in

  let sent cid kind bits =
    account_send bits;
    if observing then
      emit (Sent { src = chan_src.(cid); dst = chan_dst.(cid); kind; bits })
  in
  let send cid msg bits =
    sent cid (kind_of_message msg) bits;
    if indexed then begin
      if Ringbuf.is_empty rings.(cid) then Chanset.add active cid;
      encode_push cid msg
    end
    else Queue.push msg (chan_queue cid)
  in
  (* Indexed proof send: [rscratch.(1..3)] already hold the wave's
     record for the sending node (hash halves, nonce). *)
  let send_proof cid =
    sent cid K_proof proof_msg_bits;
    let r = rings.(cid) in
    if Ringbuf.is_empty r then Chanset.add active cid;
    rscratch.(0) <- tag_proof;
    Ringbuf.push r rscratch 4
  in
  let chan_pending cid =
    if indexed then Ringbuf.records rings.(cid)
    else Queue.length (chan_queue cid)
  in

  (* Reference (naive) selection: exactly what every event paid before
     the indexed scheduler — a Hashtbl.fold over all 2m channels
     rebuilding the pending-link list, then a random pick from it. *)
  let pick_channel () =
    if indexed then
      if Chanset.is_empty active then -1 else Chanset.pick active rng
    else
      match
        Hashtbl.fold
          (fun _ cid acc ->
            if Queue.is_empty chan_q.(cid) then acc else cid :: acc)
          naive_channels []
      with
      | [] -> -1
      | pending -> Rng.pick_list rng pending
  in

  let c = fresh_counters () in

  let broadcast_move v new_state rule_name =
    let nbrs = Graph.neighbors g v in
    Array.iteri
      (fun i _u ->
        c.update_messages <- c.update_messages + 1;
        let msg =
          match encoding with
          | Full_state -> Update_full new_state
          | Delta -> Update_delta (delta_of_move rule_name new_state)
        in
        let bits = message_bits msg in
        c.update_bits <- c.update_bits + bits;
        send chan_of.(v).(i) msg bits)
      nbrs
  in

  (* Enabled-candidate set (indexed path): the nodes whose own state or
     some mirror changed since their guards were last found disabled —
     a superset of the enabled nodes, kept dense so the drained-channel
     scheduler picks in O(1) amortized instead of scanning all n
     guards per event (the engine's dirty-set discipline, §7).  Nodes
     start as candidates; [act] settles a node's membership (kept only
     when its safety budget ran out while rules might still fire), and
     a rejected pick is removed for good until its next write. *)
  let candidates = Chanset.create (if indexed then n else 0) in
  if indexed then
    for v = 0 to n - 1 do
      Chanset.add candidates v
    done;

  let view_of v =
    {
      Algorithm.input = Config.input config v;
      self = states.(v);
      neighbors = mirrors.(v);
    }
  in

  (* Local step: act on own state + mirrors until no rule is enabled
     (bounded for safety against pathological mirror contents). *)
  let act v =
    let budget = ref (Ss_core.Predicates.bound_to_int params.Transformer.bound) in
    if !budget > 1_000_000 then budget := St.height states.(v) + n + 8;
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      match Algorithm.enabled_rule algo (view_of v) with
      | None -> continue := false
      | Some rule ->
          let new_state = rule.Algorithm.action (view_of v) in
          states.(v) <- new_state;
          c.rule_executions <- c.rule_executions + 1;
          broadcast_move v new_state rule.Algorithm.rule_name
    done;
    (* [!continue] here means the safety budget ran out first: the node
       may still be enabled, so it must stay pickable. *)
    if indexed then
      if !continue then Chanset.add candidates v
      else Chanset.remove candidates v
  in

  (* Wave nonce.  Proofs carry the nonce of the wave that hashed them;
     a proof from a superseded wave is dropped on delivery instead of
     being compared — the current wave re-verifies every mirror anyway,
     so a stale proof can only add spurious Request/Full_copy traffic
     (e.g. when the repair it would ask for is already queued behind
     it).  Dropping also keeps [requests_in_wave] correctly attributed:
     only current-wave proofs can raise requests, so the reset at wave
     start can never erase or miscount in-flight evidence. *)
  let nonce = ref 0 in
  (* Wave integrity.  Quiescence is deduced from "the last wave raised
     no request" — sound over loss-free FIFO channels, but any chaos
     action (drop, duplicate, reorder, corruption) after the wave began
     can hide a stale mirror or perturb one after its proof verified.
     So every chaos action clears this flag and completion additionally
     requires a chaos-free wave window; the expected wait is
     e^(rate·2m) waves, negligible for the shipped scenario rates. *)
  let wave_intact = ref false in
  let chaos_hit () = wave_intact := false in

  let arrive cid kind =
    c.deliveries <- c.deliveries + 1;
    if observing then
      emit (Delivered { src = chan_src.(cid); dst = chan_dst.(cid); kind })
  in
  (* A delivered proof of v's port neighbor, given by its hash halves
     and wave nonce: a superseded wave's proof is dropped, and one that
     does not match the salted digest of v's mirror asks for a full
     copy.  Nothing is allocated on a memo hit. *)
  let check_proof v port ~lo ~hi ~pnonce =
    if pnonce < !nonce then
      c.stale_proof_messages <- c.stale_proof_messages + 1
    else begin
      let id = chan_of.(v).(port) in
      refresh_mirror_digest v port id;
      Energy.write_proof ~nonce:pnonce mirror_dig (2 * id) expected 0;
      if expected.(0) <> lo || expected.(1) <> hi then begin
        c.request_messages <- c.request_messages + 1;
        c.requests_in_wave <- c.requests_in_wave + 1;
        send chan_of.(v).(port) Request Energy.request_message_bits
      end
    end
  in
  (* Deliver [msg], already popped from (or peeked at the head of)
     channel [cid]: count it, notify sinks, and run the receiver's
     protocol reaction. *)
  let process cid msg =
    arrive cid (kind_of_message msg);
    let v = chan_dst.(cid) in
    (* The naive path re-derives the receiver-side port with the O(deg)
       scan the original code paid per delivery. *)
    let port =
      if indexed then chan_dst_port.(cid)
      else Graph.port_of g v chan_src.(cid)
    in
    match msg with
    | Update_full s | Full_copy s ->
        set_mirror v port (install v port s);
        act v
    | Update_delta d ->
        set_mirror v port (apply_delta mirrors.(v).(port) d);
        act v
    | Proof (h, pnonce) ->
        check_proof v port
          ~lo:(Int64.to_int (Int64.logand h 0xFFFF_FFFFL))
          ~hi:(Int64.to_int (Int64.shift_right_logical h 32))
          ~pnonce:(Int64.to_int pnonce)
    | Request ->
        let fb = Energy.full_state_bits sync states.(v) in
        c.full_copy_messages <- c.full_copy_messages + 1;
        c.full_copy_bits <- c.full_copy_bits + fb;
        send chan_of.(v).(port) (Full_copy states.(v)) fb
  in

  (* Take the head of [cid]: consumed (its bits drained) when [pop],
     left queued otherwise, and return its kind.  An indexed proof
     stays in [rscratch] as its ring record — it is checked from there
     and never boxed; any other message is decoded into [head]. *)
  let head = ref Request in
  let take cid ~pop =
    if indexed then begin
      let r = rings.(cid) in
      if pop then begin
        ignore (Ringbuf.pop r rscratch);
        if Ringbuf.is_empty r then Chanset.remove active cid
      end
      else ignore (Ringbuf.peek r rscratch);
      if rscratch.(0) = tag_proof then begin
        if pop then account_drain proof_msg_bits;
        K_proof
      end
      else begin
        head := decode_scratch cid ~popped:pop;
        if pop then account_drain (message_bits !head);
        kind_of_message !head
      end
    end
    else begin
      let q = chan_queue cid in
      head := if pop then Queue.pop q else Queue.peek q;
      if pop then account_drain (message_bits !head);
      kind_of_message !head
    end
  in
  (* Deliver the message [take] just returned the kind of. *)
  let deliver_taken cid kind =
    if indexed && kind = K_proof then begin
      arrive cid K_proof;
      check_proof chan_dst.(cid) chan_dst_port.(cid) ~lo:rscratch.(1)
        ~hi:rscratch.(2) ~pnonce:rscratch.(3)
    end
    else process cid !head
  in
  let deliver cid = deliver_taken cid (take cid ~pop:true) in

  (* Chaos actions, each charged as one event.  Drop discards the
     channel head; duplicate delivers the head while the copy stays
     queued (so the same message is processed again later); reorder
     rotates the head behind the rest of the FIFO (a no-op disguise
     when the queue holds a single message, where it degenerates to a
     plain delivery). *)
  let chaos_drop cid =
    let kind = take cid ~pop:true in
    c.dropped <- c.dropped + 1;
    chaos_hit ();
    if observing then
      emit (Dropped { src = chan_src.(cid); dst = chan_dst.(cid); kind })
  in
  let chaos_duplicate cid =
    let kind = take cid ~pop:false in
    c.duplicated <- c.duplicated + 1;
    chaos_hit ();
    if observing then
      emit (Duplicated { src = chan_src.(cid); dst = chan_dst.(cid); kind });
    deliver_taken cid kind
  in
  let chaos_reorder cid =
    if chan_pending cid < 2 then deliver cid
    else begin
      if indexed then begin
        (* Rotate the raw record; a boxed payload rotates with it so
           the side queue stays aligned with its ring markers. *)
        let len = Ringbuf.pop rings.(cid) rscratch in
        Ringbuf.push rings.(cid) rscratch len;
        if rscratch.(0) = tag_boxed then begin
          let q = side_q cid in
          Queue.push (Queue.pop q) q
        end
      end
      else begin
        let q = chan_queue cid in
        Queue.push (Queue.pop q) q
      end;
      c.reordered <- c.reordered + 1;
      chaos_hit ();
      if observing then
        emit (Reordered { src = chan_src.(cid); dst = chan_dst.(cid) })
    end
  in

  (* Reference (naive) enabled pick: the full O(n) guard scan the
     original code paid on every drained-channel event. *)
  let node_scratch = Array.make (max 1 n) 0 in
  let pick_enabled_on_mirrors () =
    if indexed then begin
      (* Rejection sampling over the candidate superset: each draw is
         uniform over the remaining candidates, and a disabled draw is
         removed for good (it re-enters on its next state or mirror
         write via [act]), so the accepted node is uniform over the
         enabled set and the scan cost is amortized against writes. *)
      let rec go () =
        if Chanset.is_empty candidates then -1
        else begin
          let v = Chanset.pick candidates rng in
          if Algorithm.is_enabled algo (view_of v) then v
          else begin
            Chanset.remove candidates v;
            go ()
          end
        end
      in
      go ()
    end
    else begin
      let k = ref 0 in
      for v = 0 to n - 1 do
        if Algorithm.is_enabled algo (view_of v) then begin
          node_scratch.(!k) <- v;
          incr k
        end
      done;
      if !k = 0 then -1 else node_scratch.(Rng.int rng !k)
    end
  in

  (* [at] is the event index firing the wave, recorded so the periodic
     heartbeat never stacks a second wave right on top of a
     quiescence-probe wave (which would supersede its nonce and erase
     its evidence before a single proof is delivered). *)
  let last_wave_event = ref (-1) in
  let proof_wave ~at =
    last_wave_event := at;
    wave_intact := true;
    incr nonce;
    c.proof_waves <- c.proof_waves + 1;
    c.requests_in_wave <- 0;
    if observing then emit (Wave { nonce = !nonce });
    for v = 0 to n - 1 do
      refresh_state_digest v;
      (* v's proof, as the ring record's payload words. *)
      Energy.write_proof ~nonce:!nonce state_dig (2 * v) rscratch 1;
      rscratch.(3) <- !nonce;
      let chans = chan_of.(v) in
      for i = 0 to Array.length chans - 1 do
        c.proof_messages <- c.proof_messages + 1;
        c.proof_bits_total <- c.proof_bits_total + proof_msg_bits;
        if indexed then send_proof chans.(i)
        else
          send chans.(i)
            (Proof (int64_of_halves rscratch 1, Int64.of_int !nonce))
            proof_msg_bits
      done
    done
  in

  let rec loop events =
    if events >= max_events then Budget.Tripped Budget.Deliveries
    else if deadline () then Budget.Tripped Budget.Deadline
    else begin
      (* Scheduled transient corruption: mutate a victim's real state
         mid-run, exactly as §3's arbitrary-configuration premise
         allows.  The stamp-keyed digest memo misses on the
         fresh construction by itself; the victim's guards must be
         re-examined, so it re-enters the candidate set. *)
      (match chaos with
      | Some ch when Ss_chaos.Fault_plan.corruption_due ch.plan ~event:events
        ->
          let crng = Ss_chaos.Fault_plan.rng ch.plan in
          let victim = Rng.int crng n in
          states.(victim) <- ch.mutate crng victim states.(victim);
          if indexed then Chanset.add candidates victim;
          c.corruptions <- c.corruptions + 1;
          chaos_hit ();
          if observing then emit (Corrupted { node = victim })
      | _ -> ());
      (* Periodic heartbeat: without it, delta updates applied to a
         corrupted mirror would keep it wrong forever and the system
         could churn indefinitely (§6's proofs are timer-driven, not
         quiescence-driven).  Suppressed when the previous event already
         fired a quiescence-probe wave — stacking a second wave would
         supersede the probe's nonce before any of its proofs land. *)
      if
        events > 0
        && events mod heartbeat_every = 0
        && !last_wave_event < events - 1
      then proof_wave ~at:events;
      match pick_channel () with
      | cid when cid >= 0 ->
          (match chaos with
          | None -> deliver cid
          | Some ch -> (
              match Ss_chaos.Fault_plan.consult ch.plan ~event:events with
              | Ss_chaos.Fault_plan.Deliver -> deliver cid
              | Ss_chaos.Fault_plan.Drop -> chaos_drop cid
              | Ss_chaos.Fault_plan.Duplicate -> chaos_duplicate cid
              | Ss_chaos.Fault_plan.Reorder -> chaos_reorder cid));
          loop (events + 1)
      | _ -> (
          match pick_enabled_on_mirrors () with
          | v when v >= 0 ->
              act v;
              loop (events + 1)
          | _ ->
              (* Local quiescence.  The last wave's proofs have all been
                 delivered (no channel is pending) and, being
                 current-wave on delivery, none were dropped as stale:
                 if the wave verified every mirror (no request) and no
                 chaos action touched the window, the states are
                 terminal for the atomic-state transformer; otherwise
                 re-probe.  The deadline is re-checked first so a run
                 that drains its channels past its time budget reports
                 [Tripped Deadline] instead of spinning probe waves (or
                 claiming [Completed]) on borrowed time. *)
              if c.proof_waves > 0 && c.requests_in_wave = 0 && !wave_intact
              then Budget.Completed
              else if deadline () then Budget.Tripped Budget.Deadline
              else begin
                proof_wave ~at:events;
                loop (events + 1)
              end)
    end
  in
  let outcome = loop 0 in
  (* Resident mirror accounting: the arena's flat arrays at their true
     size, plus an estimate for boxed mirrors (one word per cell plus
     a small per-state overhead) and the per-mirror handles. *)
  let mirror_bytes =
    let boxed_words = ref 0 in
    Array.iter
      (fun row ->
        Array.iter
          (fun m ->
            match St.backing_arena m with
            | Some _ -> ()
            | None -> boxed_words := !boxed_words + St.height m + 4)
          row)
      mirrors;
    let arena_bytes = match marena with Some a -> Cellpack.bytes a | None -> 0 in
    arena_bytes + (8 * (!boxed_words + (8 * nchan)))
  in
  let stats =
    {
      deliveries = c.deliveries;
      rule_executions = c.rule_executions;
      update_messages = c.update_messages;
      update_bits = c.update_bits;
      proof_messages = c.proof_messages;
      proof_bits = c.proof_bits_total;
      stale_proof_messages = c.stale_proof_messages;
      request_messages = c.request_messages;
      full_copy_messages = c.full_copy_messages;
      full_copy_bits = c.full_copy_bits;
      proof_waves = c.proof_waves;
      dropped_messages = c.dropped;
      reordered_messages = c.reordered;
      duplicated_messages = c.duplicated;
      corruption_events = c.corruptions;
      peak_queued_bits = !peak_queued_bits;
      mirror_bytes;
      quiescent = outcome = Budget.Completed;
      outcome;
    }
  in
  (Config.with_states config states, stats)

let run ?codec ?layout ?encoding ?budget ?max_events ?proof ?heartbeat_every
    ?now ?chaos ~rng ?corrupt_mirrors ?sinks params config =
  run_impl ~indexed:true ?codec ?layout ?encoding ?budget ?max_events ?proof
    ?heartbeat_every ?now ?chaos ~rng ?corrupt_mirrors ?sinks params config

let run_naive ?encoding ?budget ?max_events ?proof ?heartbeat_every ?now ~rng
    ?corrupt_mirrors ?sinks params config =
  run_impl ~indexed:false ?encoding ?budget ?max_events ?proof ?heartbeat_every
    ?now ~rng ?corrupt_mirrors ?sinks params config

let report ?(label = "msgnet-run") ?seed ?wall_s ?timebase (s : stats) =
  Run_report.v ?seed ?wall_s ?timebase ~outcome:s.outcome label
    (Run_report.Msgnet
       {
         Run_report.deliveries = s.deliveries;
         rule_executions = s.rule_executions;
         update_messages = s.update_messages;
         update_bits = s.update_bits;
         proof_messages = s.proof_messages;
         proof_bits = s.proof_bits;
         stale_proof_messages = s.stale_proof_messages;
         request_messages = s.request_messages;
         full_copy_messages = s.full_copy_messages;
         full_copy_bits = s.full_copy_bits;
         proof_waves = s.proof_waves;
         dropped_messages = s.dropped_messages;
         reordered_messages = s.reordered_messages;
         duplicated_messages = s.duplicated_messages;
         corruption_events = s.corruption_events;
         peak_queued_bits = s.peak_queued_bits;
         mirror_bytes = s.mirror_bytes;
         total_bits = total_bits s;
       })
