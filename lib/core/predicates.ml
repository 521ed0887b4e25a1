module Algorithm = Ss_sim.Algorithm
module Sync_algo = Ss_sync.Sync_algo
module St = Trans_state

type mode = Lazy | Greedy
type bound = Finite of int | Infinite

type ('s, 'i) params = {
  sync : ('s, 'i) Sync_algo.t;
  mode : mode;
  bound : bound;
}

type ('s, 'i) view = ('s Trans_state.t, 'i) Algorithm.view

let below_bound b h = match b with Finite b -> h < b | Infinite -> true
let bound_to_int = function Finite b -> b | Infinite -> max_int

(* Dependency buffers, one per degree: [step] gets an exact-length
   neighbor array and must not retain it, so every evaluation at a
   given degree refills the same buffer in place instead of allocating
   a fresh [Array.map]. *)
type 's scratch = { mutable bufs : 's array array }

let make_scratch () = { bufs = [||] }

(* The degree-[deg] buffer, created on first use with [fill]. *)
let deps_buffer sc deg fill =
  if deg >= Array.length sc.bufs then begin
    let bufs = Array.make (deg + 1) [||] in
    Array.blit sc.bufs 0 bufs 0 (Array.length sc.bufs);
    sc.bufs <- bufs
  end;
  let b = sc.bufs.(deg) in
  if Array.length b = deg then b
  else begin
    let b = Array.make deg fill in
    sc.bufs.(deg) <- b;
    b
  end

(* [deps] holds every neighbor's cell [i]. *)
let fill_deps deps nbs i =
  for k = 0 to Array.length nbs - 1 do
    deps.(k) <- St.cell nbs.(k) i
  done

let algo_hat sc params (v : ('s, 'i) view) i =
  let nbs = v.Algorithm.neighbors in
  let deps = deps_buffer sc (Array.length nbs) (St.init v.Algorithm.self) in
  fill_deps deps nbs i;
  params.sync.Sync_algo.step v.Algorithm.input (St.cell v.Algorithm.self i) deps

let min_neighbor_height (v : ('s, 'i) view) =
  let nbs = v.Algorithm.neighbors in
  let m = ref max_int in
  for k = 0 to Array.length nbs - 1 do
    let h = St.height nbs.(k) in
    if h < !m then m := h
  done;
  !m

(* Cell i is checkable when all dependencies exist: i - 1 <= q.h for
   every neighbor q, i.e. i <= min_nb + 1 (beware overflow when the
   node has no neighbors). *)
let top_checkable (v : ('s, 'i) view) : int =
  let h = St.height v.Algorithm.self in
  let min_nb = min_neighbor_height v in
  if min_nb = max_int then h else min h (min_nb + 1)

(* Scan cells [base+1 .. top] for an algorithm error, refilling the
   scratch dependency buffer per cell.  Returns the index of the
   first bad cell, or [top + 1] when the whole range verifies. *)
let first_bad sc params (v : ('s, 'i) view) ~base ~top =
  let self = v.Algorithm.self in
  let nbs = v.Algorithm.neighbors in
  let deps = deps_buffer sc (Array.length nbs) (St.init self) in
  let i = ref (base + 1) in
  let bad = ref false in
  while (not !bad) && !i <= top do
    fill_deps deps nbs (!i - 1);
    if
      not
        (params.sync.Sync_algo.equal (St.cell self !i)
           (params.sync.Sync_algo.step v.Algorithm.input
              (St.cell self (!i - 1))
              deps))
    then bad := true
    else incr i
  done;
  !i

let algo_err params (v : ('s, 'i) view) =
  let top = top_checkable v in
  top >= 1 && first_bad (make_scratch ()) params v ~base:0 ~top <= top

(* ------------------------------------------------------------------ *)
(* Memoized verification watermarks                                    *)
(* ------------------------------------------------------------------ *)

(* One watermark per node, keyed by the identity of the node's backing
   buffer ({!St.rep_id}): cells [1 .. verified] were checked against
   dependencies that are still physically present as long as every
   neighbor kept its buffer (write-once committed prefixes, see
   trans_state.ml).  A guard re-evaluation therefore costs O(deg)
   stamp comparisons plus one [step] per cell appended or repaired
   since the previous evaluation — O(Δ·deg) instead of the naive
   O(h·deg) full-prefix re-verification. *)
type entry = {
  mutable input : Obj.t;
      (* Physical token of the view's input: a buffer is the [self] of
         exactly one node in practice, but a pathological config could
         alias states across nodes — the token turns that into a cache
         miss instead of a wrong answer. *)
  mutable self_stamp : int;
  mutable nb_stamps : int array;
  mutable nb_reps : int array;
  mutable verified : int;  (* cells 1 .. verified are algo-correct *)
  mutable top : int;  (* top_checkable at the last evaluation *)
  mutable result : bool;
}

module Marks = Hashtbl.Make (Int)

(* The per-domain guard workspace: the watermarks plus the dependency
   scratch that every guard and action of the instantiation shares. *)
type ('s, 'i) cache = { marks : entry Marks.t; scratch : 's scratch }

let make_cache () = { marks = Marks.create 64; scratch = make_scratch () }
let cache_scratch c = c.scratch

(* Error broadcasts mint a fresh buffer per RR move; cap the table so
   a long recovery cannot accumulate unbounded stale watermarks. *)
let cache_capacity = 1 lsl 16

(* Global count of guard evaluations answered (fully or partially)
   from a watermark instead of a full-prefix rescan.  The caches
   themselves are per-domain (transformer.ml keys them through
   Domain.DLS), so this one shared counter is the only cross-domain
   write on the hot path; it exists so tests can assert that sharded
   runs actually exercise the cached predicates. *)
let hits = Atomic.make 0
let cache_hits () = Atomic.get hits

let rec stamps_agree e nbs k =
  k >= Array.length nbs
  || (e.nb_stamps.(k) = St.stamp nbs.(k) && stamps_agree e nbs (k + 1))

let rec reps_agree e nbs k =
  k >= Array.length nbs
  || (e.nb_reps.(k) = St.rep_id nbs.(k) && reps_agree e nbs (k + 1))

(* Nothing changed since [e] was recorded: the same answer holds. *)
let fresh_hit e input self nbs top =
  e.input == input
  && e.self_stamp = St.stamp self
  && e.top = top
  && Array.length e.nb_stamps = Array.length nbs
  && stamps_agree e nbs 0

(* Every neighbor kept its buffer: cells [1 .. e.verified] still hold. *)
let prefix_valid e input nbs =
  e.input == input && Array.length e.nb_reps = Array.length nbs && reps_agree e nbs 0

(* Store the outcome of a scan that found its first bad cell at [i]. *)
let record e input self nbs ~top i =
  let deg = Array.length nbs in
  e.input <- input;
  e.self_stamp <- St.stamp self;
  if Array.length e.nb_stamps <> deg then begin
    e.nb_stamps <- Array.make deg 0;
    e.nb_reps <- Array.make deg 0
  end;
  for k = 0 to deg - 1 do
    e.nb_stamps.(k) <- St.stamp nbs.(k);
    e.nb_reps.(k) <- St.rep_id nbs.(k)
  done;
  let result = i <= top in
  e.verified <- (if result then i - 1 else top);
  e.top <- top;
  e.result <- result

let algo_err_cached (c : ('s, 'i) cache) params (v : ('s, 'i) view) =
  let top = top_checkable v in
  if top < 1 then false
  else begin
    let self = v.Algorithm.self in
    let nbs = v.Algorithm.neighbors in
    let input = Obj.repr v.Algorithm.input in
    let rep = St.rep_id self in
    match Marks.find c.marks rep with
    | e when fresh_hit e input self nbs top ->
        Atomic.incr hits;
        e.result
    | e ->
        let base = if prefix_valid e input nbs then min e.verified top else 0 in
        if base > 0 then Atomic.incr hits;
        record e input self nbs ~top (first_bad c.scratch params v ~base ~top);
        e.result
    | exception Not_found ->
        if Marks.length c.marks >= cache_capacity then Marks.reset c.marks;
        let e =
          {
            input;
            self_stamp = 0;
            nb_stamps = [||];
            nb_reps = [||];
            verified = 0;
            top;
            result = false;
          }
        in
        record e input self nbs ~top (first_bad c.scratch params v ~base:0 ~top);
        Marks.replace c.marks rep e;
        e.result
  end

(* Closure-free neighbor scans for the guards below. *)
let rec error_below nbs k h =
  k < Array.length nbs
  && ((St.in_error nbs.(k) && St.height nbs.(k) < h) || error_below nbs (k + 1) h)

let rec height_above nbs k h =
  k < Array.length nbs && (St.height nbs.(k) > h || height_above nbs (k + 1) h)

let rec heights_within nbs k lo hi =
  k >= Array.length nbs
  ||
  let hq = St.height nbs.(k) in
  lo <= hq && hq <= hi && heights_within nbs (k + 1) lo hi

let rec clearable_from nbs k h =
  k >= Array.length nbs
  ||
  let q = nbs.(k) in
  let hq = St.height q in
  abs (hq - h) <= 1
  && (hq <= h || not (St.in_error q))
  && clearable_from nbs (k + 1) h

let dep_err _params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  let h = St.height self in
  let nbs = v.Algorithm.neighbors in
  match St.status self with
  | St.E -> not (error_below nbs 0 h)
  | St.C -> height_above nbs 0 (h + 1)

let is_root params v = algo_err params v || dep_err params v

let err_prop_index _params (v : ('s, 'i) view) =
  let h = St.height v.Algorithm.self in
  let nbs = v.Algorithm.neighbors in
  (* The smallest valid i is (min height of an error neighbor) + 1;
     it must satisfy q.h < i < p.h. *)
  let best = ref max_int in
  for k = 0 to Array.length nbs - 1 do
    let q = nbs.(k) in
    if St.in_error q && St.height q < !best then best := St.height q
  done;
  if !best < max_int && !best + 1 < h then Some (!best + 1) else None

let can_clear_e _params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  St.in_error self && clearable_from v.Algorithm.neighbors 0 (St.height self)

(* The O(deg) height tests run before [algo_hat]'s [step] call; the
   predicate is pure, so the order does not change the answer. *)
let updatable sc params (v : ('s, 'i) view) =
  let self = v.Algorithm.self in
  let h = St.height self in
  let nbs = v.Algorithm.neighbors in
  (not (St.in_error self))
  && below_bound params.bound h
  && heights_within nbs 0 h (h + 1)
  && (params.mode = Greedy
     || height_above nbs 0 h
     || not (params.sync.Sync_algo.equal (St.top self) (algo_hat sc params v h)))
