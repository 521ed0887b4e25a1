(** Unified execution budgets across the three run loops.

    Every loop of the system — {!Ss_sim.Engine.run} (atomic-state
    steps/moves), {!Ss_sync.Sync_runner.run} (synchronous rounds) and
    {!Ss_msgnet.Msgnet.run} (message deliveries) — historically had
    its own ad-hoc cap arguments.  A [Budget.t] expresses all of them
    in one record, and {!outcome} is the single "which limit tripped"
    answer every loop reports.

    Semantics are {e conjunctive}: an execution stops at the first
    limit it reaches.  A field left [None] is unlimited.  Loops that
    also take their historical optional arguments combine them with
    the budget via {!resolve} — the {e tightest} provided limit wins,
    so a budget can only ever shrink an execution, never extend one
    past an explicit legacy cap. *)

type t = {
  steps : int option;
      (** Daemon steps ({!Ss_sim.Engine}) or synchronous rounds
          ({!Ss_sync.Sync_runner}) — the loop's coarse iteration count. *)
  moves : int option;
      (** Hard cap on rule executions; never overshot (the engine
          truncates the budget-crossing selection to a prefix). *)
  deliveries : int option;
      (** Cap on message-network events; since each event delivers at
          most one message, [stats.deliveries] never exceeds it. *)
  deadline_s : float option;
      (** Wall-clock allowance in seconds, measured against the
          monotonic clock ({!now_s}) — immune to NTP steps, unlike
          [Unix.gettimeofday], and to blocked-process undershoot,
          unlike [Sys.time]. *)
}

val unlimited : t
(** No limit on anything. *)

val v :
  ?steps:int -> ?moves:int -> ?deliveries:int -> ?deadline_s:float -> unit -> t
(** Budget with the given limits; omitted fields are unlimited. *)

type limit = Steps | Moves | Deliveries | Deadline

type outcome =
  | Completed  (** The loop reached its natural end (terminal
          configuration, fixpoint, or verified quiescence). *)
  | Tripped of limit  (** The named budget limit cut the run short. *)

val resolve : default:int -> int option -> int option -> int
(** [resolve ~default legacy budget] is the effective integer cap:
    the minimum of the provided limits, or [default] when both are
    [None]. *)

val now_s : unit -> float
(** Monotonic timestamp in seconds (the [CLOCK_MONOTONIC] stub from
    [bechamel.monotonic_clock], falling back to [Unix.gettimeofday]
    where unavailable).  Only differences are meaningful. *)

val deadline_check : ?now:(unit -> float) -> t -> unit -> bool
(** [deadline_check t] starts the clock now and returns a predicate
    that turns [true] once the deadline has passed.  Constant [false]
    (and free of clock reads) when no deadline is set.

    On the default clock a check compares raw monotonic nanoseconds
    as immediate ints and allocates nothing (the loops check once per
    engine step and once per message event).

    [now] injects the time source (default {!now_s}).  Deterministic
    simulations pass a virtual clock ([Ss_chaos.Clock.now_fn]) so
    deadline budgets depend only on simulated time — wall-clock jumps,
    GC pauses and machine load can never trip a deadline mid-scenario,
    and replays are exact. *)

val limit_to_string : limit -> string
val outcome_to_string : outcome -> string
(** ["completed"], ["steps"], ["moves"], ["deliveries"], ["deadline"] —
    the wire encoding used by {!Run_report}. *)

val outcome_of_string : string -> (outcome, string) result
