(* Measurement plumbing shared by the workloads: the clock, GC
   snapshots, one instance's sample, and the aggregation of samples
   into the end-to-end metrics. *)

let now = Ss_report.Budget.now_s

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The reference loop: fixed, allocation-heavy work owned by the
   benchmark, timed around every timed instance on the main domain to
   track the host's speed (see README, "Noise"). *)
let reference () =
  let t0 = now () in
  let l = ref [] in
  for i = 1 to 300_000 do
    l := (i, float i) :: (if i land 1023 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l);
  now () -. t0

(* [reference ()]'s time on the host the benchmark was written on (a
   2-vCPU Xeon KVM guest) in its fast state: timings are reported in
   seconds of that host. *)
let reference_s = 1.2e-3

type gc = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  minor_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
    minor_collections = s.Gc.minor_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections;
    minor_collections = b.minor_collections - a.minor_collections;
  }

(* The process's major-heap high-water mark, in MiB. *)
let peak_heap_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words
  *. float (Sys.word_size / 8)
  /. 1048576.

(* One instance: set up, run, check.  [model] holds the modelled
   counts the traced run must reproduce exactly. *)
type sample = {
  build_s : float;  (** Graph construction. *)
  history_s : float;  (** Synchronous ground truth (and instantiation). *)
  start_s : float;  (** Corrupted start configuration. *)
  run_s : float;  (** The run call alone. *)
  check_s : float;  (** Legitimacy and specification check. *)
  sync_t : int;  (** [T] of the ground truth. *)
  moves : int;
  deliveries : int;
  gc : gc;  (** Delta over the run call. *)
  model : (string * int) list;
  failure : string option;  (** Why the instance is not certified. *)
}

let setup_s s = s.build_s +. s.history_s +. s.start_s

(* [instance ~reps prepare] sets an instance up [reps] times — the
   set-up is deterministic, so the repeats only steady its timing — and
   runs the last set-up.  [prepare ()] returns the build, history and
   start phase times and the run-and-check closure.  The heap is
   compacted before the run, outside any timed region, so that no run
   pays for collecting the garbage of the set-ups before it. *)
let instance ~reps prepare =
  let rec setups k acc =
    let phases, go = prepare () in
    let acc = phases :: acc in
    if k <= 1 then (acc, go) else setups (k - 1) acc
  in
  let phases, go = setups reps [] in
  let med f = median (List.map f phases) in
  Gc.compact ();
  let s = go () in
  {
    s with
    build_s = med (fun (b, _, _) -> b);
    history_s = med (fun (_, h, _) -> h);
    start_s = med (fun (_, _, st) -> st);
  }

(* [exact_pass run seeds] runs every instance of [seeds] once on one
   domain, where every modelled count and [Gc] counter is exact.  It
   returns the samples and the heap peak of the fresh process after the
   first instance: later instances would add the heap's fragmentation
   to it, which depends on their order rather than on their size. *)
let exact_pass run seeds =
  Ss_par.Par.set_jobs 1;
  match seeds with
  | [] -> invalid_arg "Perf.exact_pass: no instances"
  | s0 :: rest ->
      let s0 = run s0 in
      let peak = peak_heap_mb () in
      (s0 :: List.map run rest, peak)

(* [passes ~seconds ~jobs run seeds] makes the exact pass and then, at
   [jobs] domains, keeps cycling through [seeds] until [seconds] have
   elapsed since the first timed instance began, at least once.
   Returns the exact pass, the heap peak after it, and the timed
   samples. *)
let passes ~seconds ~jobs run seeds =
  let first, peak = exact_pass run seeds in
  Ss_par.Par.set_jobs jobs;
  let timed seed =
    let r0 = reference () in
    let s = run seed in
    let r1 = reference () in
    let ref_s = (r0 +. r1) /. 2. in
    Printf.eprintf
      "perfbench: instance %d setup %.6f run %.6f check %.6f ref %.6f\n"
      seed (setup_s s) s.run_s s.check_s ref_s;
    (s, ref_s)
  in
  let cycle = Array.of_list seeds in
  let samples = ref [] and i = ref 0 in
  let t0 = now () in
  while !i = 0 || now () -. t0 < seconds do
    samples := timed cycle.(!i mod Array.length cycle) :: !samples;
    incr i
  done;
  (first, peak, List.rev !samples)

let rate count s = if s.run_s > 0. then float (count s) /. s.run_s else 0.

(* End-to-end timings over the timed samples, each paired with the
   reference time around it: the median of each time (rate) divided
   (multiplied) by the host's speed at that moment, in seconds of the
   reference host. *)
let timings timed =
  let med f = median (List.map (fun (s, ref_s) -> f s ref_s) timed) in
  let time f = med (fun s ref_s -> f s /. ref_s *. reference_s) in
  let per_s count = med (fun s ref_s -> rate count s *. ref_s /. reference_s) in
  [
    ("setup_s", time setup_s, "s");
    ("run_s", time (fun s -> s.run_s +. s.check_s), "s");
    ("moves_per_s", per_s (fun s -> s.moves), "1/s");
    ("deliveries_per_s", per_s (fun s -> s.deliveries), "1/s");
  ]

(* End-to-end figures read from the exact pass, which runs on one
   domain: allocation, the heap peak, and per-instance counts. *)
let exact ~first ~peak =
  let k = float (List.length first) in
  let total f = float (List.fold_left (fun acc s -> acc + f s) 0 first) in
  let moves = total (fun s -> s.moves) in
  let deliveries = total (fun s -> s.deliveries) in
  let words = List.fold_left (fun acc s -> acc +. s.gc.minor_words) 0. first in
  [
    ("alloc_words_per_move", words /. moves, "words");
    ("alloc_words_per_delivery", words /. deliveries, "words");
    ("peak_heap_mb", peak, "MiB");
    ("moves", moves /. k, "count");
    ("deliveries", deliveries /. k, "count");
  ]

(* Per-layer figures every workload shares: set-up phases, the check,
   and the GC deltas of the untraced exact pass (per instance). *)
let common_layers ~first =
  let k = float (List.length first) in
  let per f = List.fold_left (fun acc s -> acc +. f s) 0. first /. k in
  [
    ("graph.build_s", median (List.map (fun s -> s.build_s) first), "s");
    ("sync.history_s", median (List.map (fun s -> s.history_s) first), "s");
    ("sync.T", per (fun s -> float s.sync_t), "rounds");
    ("core.start_s", median (List.map (fun s -> s.start_s) first), "s");
    ("core.check_s", median (List.map (fun s -> s.check_s) first), "s");
    ("gc.minor_words", per (fun s -> s.gc.minor_words), "words");
    ("gc.promoted_words", per (fun s -> s.gc.promoted_words), "words");
    ( "gc.major_collections",
      per (fun s -> float s.gc.major_collections),
      "count" );
    ( "gc.minor_collections",
      per (fun s -> float s.gc.minor_collections),
      "count" );
  ]

(* The traced run must model exactly what the untraced run did. *)
let assert_same_model ~untraced ~traced =
  List.iter2
    (fun u t ->
      if u.model <> t.model then
        failwith
          (Printf.sprintf "traced run diverged: %s vs %s"
             (String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) u.model))
             (String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) t.model))))
    untraced traced
