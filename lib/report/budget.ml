type t = {
  steps : int option;
  moves : int option;
  deliveries : int option;
  deadline_s : float option;
}

let unlimited = { steps = None; moves = None; deliveries = None; deadline_s = None }

let v ?steps ?moves ?deliveries ?deadline_s () =
  { steps; moves; deliveries; deadline_s }

type limit = Steps | Moves | Deliveries | Deadline
type outcome = Completed | Tripped of limit

let resolve ~default legacy budget =
  match (legacy, budget) with
  | None, None -> default
  | Some a, None -> a
  | None, Some b -> b
  | Some a, Some b -> min a b

(* A deadline must survive NTP steps and machine load, so it is
   measured against CLOCK_MONOTONIC (the bechamel stub, ns since an
   arbitrary origin); [Sys.time] (processor time) undershoots wall
   time arbitrarily on blocked runs and [Unix.gettimeofday] jumps.
   Probe once: a zero reading means the stub has no monotonic source
   on this platform — degrade to wall time. *)
let monotonic = Monotonic_clock.now () > 0L

let now_s =
  if monotonic then fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  else Unix.gettimeofday

let deadline_check ?now t =
  match (t.deadline_s, now) with
  | None, _ -> fun () -> false
  | Some allowance, None when monotonic ->
      (* Default clock: compare raw nanoseconds as immediate ints (the
         stub returns an unboxed int64), so a check allocates nothing —
         it runs once per engine step and once per message event.  An
         allowance of zero or less trips at once; NaN, and anything
         beyond ~126 years, never trips. *)
      let ns = allowance *. 1e9 in
      if ns <= 0. then fun () -> true
      else if not (ns < 4e18) then fun () -> false
      else begin
        let limit = Int64.to_int (Monotonic_clock.now ()) + int_of_float ns in
        fun () -> Int64.to_int (Monotonic_clock.now ()) >= limit
      end
  | Some allowance, _ ->
      let now = Option.value now ~default:now_s in
      let t0 = now () in
      fun () -> now () -. t0 >= allowance

let limit_to_string = function
  | Steps -> "steps"
  | Moves -> "moves"
  | Deliveries -> "deliveries"
  | Deadline -> "deadline"

let outcome_to_string = function
  | Completed -> "completed"
  | Tripped l -> limit_to_string l

let outcome_of_string = function
  | "completed" -> Ok Completed
  | "steps" -> Ok (Tripped Steps)
  | "moves" -> Ok (Tripped Moves)
  | "deliveries" -> Ok (Tripped Deliveries)
  | "deadline" -> Ok (Tripped Deadline)
  | s -> Error ("unknown outcome: " ^ s)
