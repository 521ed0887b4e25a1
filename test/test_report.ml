(* Tests for the unified reporting pipeline (Ss_report): the JSON
   value type, the Budget record and its never-overshoot guarantee
   across all three run loops, Run_report round-trips, and the
   text-table / JSON-table content identity. *)

module Json = Ss_report.Json
module Budget = Ss_report.Budget
module Run_report = Ss_report.Run_report
module Table = Ss_prelude.Table
module Rng = Ss_prelude.Rng
module G = Ss_graph
module Sim = Ss_sim
module Engine = Ss_sim.Engine
module Core = Ss_core
module M = Ss_msgnet.Msgnet
module Leader = Ss_algos.Leader_election

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("yes", Json.Bool true);
      ("no", Json.Bool false);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.String "hello");
      ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
      ("o", Json.Obj [ ("k", Json.String "v") ]);
    ]

let test_json_emit () =
  check_str "compact deterministic rendering"
    "{\"null\":null,\"yes\":true,\"no\":false,\"n\":-42,\"x\":1.5,\"s\":\"hello\",\"l\":[1,2,3],\"o\":{\"k\":\"v\"}}"
    (Json.to_string sample)

let test_json_escapes () =
  check_str "quotes, backslashes, controls"
    "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
    (Json.to_string (Json.String "a\"b\\c\nd\te\001f"));
  (* Non-ASCII bytes (UTF-8) pass through verbatim. *)
  check_str "utf-8 verbatim" "\"caf\xc3\xa9\""
    (Json.to_string (Json.String "caf\xc3\xa9"))

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  List.iter
    (fun v -> check "emit/parse round-trip" true (roundtrip v))
    [
      Json.Null;
      Json.Bool true;
      Json.Int 0;
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 1.5;
      Json.Float 0.1;
      Json.Float (-3.25e-7);
      Json.Float 2.0;
      Json.String "";
      Json.String "a\"b\\c\nd\te\001f";
      Json.String "caf\xc3\xa9";
      Json.List [];
      Json.Obj [];
      sample;
      Json.List [ sample; Json.List [ sample ] ];
    ]

let test_json_parse () =
  let ok s v =
    match Json.of_string s with
    | Ok v' -> check ("parse " ^ s) true (v' = v)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  ok "  [1, 2.5, \"x\"]  "
    (Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
  ok "\"\\u0041\\u00e9\"" (Json.String "A\xc3\xa9");
  ok "\"\\u2713\"" (Json.String "\xe2\x9c\x93");
  ok "1e3" (Json.Float 1000.);
  ok "-0.5" (Json.Float (-0.5));
  let err s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "expected a parse error on %s" s
    | Error e -> check "error mentions offset" true (String.length e > 0)
  in
  List.iter err
    [ "tru"; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "[] []"; "01"; "" ]

let test_json_nonfinite () =
  check_str "nan renders as null" "null" (Json.to_string (Json.Float nan));
  check_str "inf renders as null" "null"
    (Json.to_string (Json.Float infinity));
  (* Integral floats keep a fractional digit so they re-parse Float. *)
  check_str "2.0 stays a float" "2.0" (Json.to_string (Json.Float 2.0))

(* ------------------------------------------------------------------ *)
(* Budget                                                               *)
(* ------------------------------------------------------------------ *)

let test_budget_resolve () =
  check_int "both None -> default" 7 (Budget.resolve ~default:7 None None);
  check_int "legacy only" 3 (Budget.resolve ~default:7 (Some 3) None);
  check_int "budget only" 4 (Budget.resolve ~default:7 None (Some 4));
  check_int "tightest wins (legacy)" 2
    (Budget.resolve ~default:7 (Some 2) (Some 9));
  check_int "tightest wins (budget)" 2
    (Budget.resolve ~default:7 (Some 9) (Some 2))

let test_budget_outcome_strings () =
  List.iter
    (fun o ->
      match Budget.outcome_of_string (Budget.outcome_to_string o) with
      | Ok o' -> check "outcome string round-trip" true (o = o')
      | Error e -> Alcotest.fail e)
    [
      Budget.Completed;
      Budget.Tripped Budget.Steps;
      Budget.Tripped Budget.Moves;
      Budget.Tripped Budget.Deliveries;
      Budget.Tripped Budget.Deadline;
    ];
  check "unknown outcome rejected" true
    (Result.is_error (Budget.outcome_of_string "zap"))

let test_deadline_check () =
  let never = Budget.deadline_check Budget.unlimited in
  check "no deadline never fires" false (never ());
  let instant = Budget.deadline_check (Budget.v ~deadline_s:(-1.) ()) in
  check "expired deadline fires" true (instant ())

let test_deadline_monotonic () =
  (* now_s reads the monotonic clock: it never runs backwards, no
     matter what NTP does to wall time meanwhile. *)
  let prev = ref (Budget.now_s ()) in
  for _ = 1 to 1_000 do
    let t = Budget.now_s () in
    check "now_s never decreases" true (t >= !prev);
    prev := t
  done;
  (* A real allowance measured against that clock: unexpired on
     creation, expired once the clock has visibly advanced past it. *)
  let trip = Budget.deadline_check (Budget.v ~deadline_s:0.01 ()) in
  check "fresh 10ms deadline unexpired" false (trip ());
  let t0 = Budget.now_s () in
  while Budget.now_s () -. t0 < 0.012 do
    ignore (Sys.opaque_identity 0)
  done;
  check "deadline fires after allowance elapses" true (trip ())

(* The default-clock check runs once per engine step and once per
   message-network event, so it must allocate nothing. *)
let test_deadline_check_alloc_free () =
  let expired = Budget.deadline_check (Budget.v ~deadline_s:3600. ()) in
  ignore (expired ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (expired ()))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 1000 checks" 0. words

(* ------------------------------------------------------------------ *)
(* Run_report round-trips                                               *)
(* ------------------------------------------------------------------ *)

let reports =
  [
    Run_report.v ~seed:42 ~wall_s:0.25 "engine-run"
      (Run_report.Engine
         {
           Run_report.steps = 10;
           moves = 20;
           rounds = 3;
           moves_per_rule = [ ("RR", 1); ("RP", 0); ("RC", 4); ("RU", 15) ];
         });
    Run_report.v ~outcome:(Budget.Tripped Budget.Moves) "capped"
      (Run_report.Engine
         { Run_report.steps = 1; moves = 5; rounds = 0; moves_per_rule = [] });
    Run_report.v "sync-run" (Run_report.Sync { Run_report.sync_rounds = 4; nodes = 16 });
    Run_report.v ~seed:1 ~wall_s:1.5
      ~outcome:(Budget.Tripped Budget.Deliveries) "msgnet-run"
      (Run_report.Msgnet
         {
           Run_report.deliveries = 100;
           rule_executions = 12;
           update_messages = 30;
           update_bits = 400;
           proof_messages = 16;
           proof_bits = 2048;
           stale_proof_messages = 2;
           request_messages = 1;
           full_copy_messages = 1;
           full_copy_bits = 64;
           proof_waves = 2;
           dropped_messages = 0;
           reordered_messages = 0;
           duplicated_messages = 0;
           corruption_events = 0;
           peak_queued_bits = 512;
           mirror_bytes = 4096;
           total_bits = 2600;
         });
    (* A chaos-mode report: non-zero fault counters and virtual time. *)
    Run_report.v ~seed:7 ~wall_s:0.031 ~timebase:Run_report.Virtual
      "msgnet-chaos"
      (Run_report.Msgnet
         {
           Run_report.deliveries = 3100;
           rule_executions = 140;
           update_messages = 620;
           update_bits = 9800;
           proof_messages = 256;
           proof_bits = 32768;
           stale_proof_messages = 31;
           request_messages = 9;
           full_copy_messages = 9;
           full_copy_bits = 1152;
           proof_waves = 8;
           dropped_messages = 64;
           reordered_messages = 33;
           duplicated_messages = 29;
           corruption_events = 3;
           peak_queued_bits = 70944;
           mirror_bytes = 52000;
           total_bits = 44000;
         });
  ]

let test_run_report_roundtrip () =
  List.iter
    (fun r ->
      match Run_report.of_json (Run_report.to_json r) with
      | Ok r' -> check "to_json/of_json inverse" true (r = r')
      | Error e -> Alcotest.fail e)
    reports;
  (* And through the wire: emit, parse, decode. *)
  List.iter
    (fun r ->
      match Json.of_string (Json.to_string (Run_report.to_json r)) with
      | Ok j -> check "through text" true (Run_report.of_json j = Ok r)
      | Error e -> Alcotest.fail e)
    reports

(* ------------------------------------------------------------------ *)
(* Text table vs JSON table: same content                               *)
(* ------------------------------------------------------------------ *)

(* Parse the text rendering back into rows of cell strings.  The
   renderer pads cells to the column width and joins with two spaces,
   so for space-free cell text, splitting on runs of >= 2 spaces
   recovers the cells. *)
let parse_text_table rendered =
  let lines =
    String.split_on_char '\n' rendered
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | _header :: _rule :: rows ->
      List.map
        (fun line ->
          let rec split acc cur i =
            if i >= String.length line then List.rev (cur :: acc)
            else if
              line.[i] = ' '
              && i + 1 < String.length line
              && line.[i + 1] = ' '
            then begin
              let rec skip j =
                if j < String.length line && line.[j] = ' ' then skip (j + 1)
                else j
              in
              split (cur :: acc) "" (skip i)
            end
            else split acc (cur ^ String.make 1 line.[i]) (i + 1)
          in
          split [] "" 0 |> List.filter (fun c -> c <> "")
          |> List.map String.trim)
        rows
  | _ -> []

let json_table_rows j =
  match j with
  | Json.Obj fields -> (
      match List.assoc_opt "rows" fields with
      | Some (Json.List rows) ->
          List.map
            (fun row ->
              match row with
              | Json.Obj cells ->
                  List.map
                    (fun (_k, v) ->
                      match v with
                      | Json.Int n -> string_of_int n
                      | Json.String s -> s
                      | other -> Json.to_string other)
                    cells
              | _ -> Alcotest.fail "row is not an object")
            rows
      | _ -> Alcotest.fail "missing rows")
  | _ -> Alcotest.fail "table JSON is not an object"

let table_contents_agree table =
  let text = Format.asprintf "%a" Table.render table in
  let from_text = parse_text_table text in
  let from_json = json_table_rows (Run_report.of_table table) in
  from_text = from_json

let test_table_equivalence_real () =
  (* The actual experiment tables the CLI and bench emit: parse the
     text rendering and the JSON rows and require identical content. *)
  check "Table1.space_rows" true
    (table_contents_agree (Ss_expt.Table1.space_rows ~seeds:[ 1 ] (Rng.create 7)));
  check "Msgnet_expt.rows" true
    (table_contents_agree (Ss_expt.Msgnet_expt.rows ~seeds:[ 1 ] (Rng.create 7)));
  check "Transformers_expt.rows" true
    (table_contents_agree
       (fst
          (Ss_expt.Transformers_expt.rows
             ~algos:[ "leader"; "cv" ]
             ~graphs:
               [
                 ("ring:8", Ss_graph.Builders.cycle 8);
                 ("path:6", Ss_graph.Builders.path 6);
               ]
             ~seeds:[ 1 ] (Rng.create 7))))

let qcheck_table_equivalence =
  let open QCheck in
  let cell_gen =
    Gen.oneof
      [
        Gen.map (fun n -> Table.I n) Gen.small_signed_int;
        Gen.map
          (fun s -> Table.S (if s = "" then "x" else s))
          (Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'b'; 'z'; '0'; '-'; '_' ])
             (Gen.int_range 1 8));
      ]
  in
  let table_gen =
    Gen.(
      int_range 1 5 >>= fun ncols ->
      int_range 0 6 >>= fun nrows ->
      let header = List.init ncols (fun i -> Printf.sprintf "c%d" i) in
      list_repeat nrows (list_repeat ncols cell_gen) >>= fun rows ->
      return (header, rows))
  in
  Test.make ~count:200 ~name:"text table and JSON table render the same content"
    (make table_gen) (fun (header, rows) ->
      let t = Table.create header in
      List.iter (Table.add t) rows;
      table_contents_agree t)

(* ------------------------------------------------------------------ *)
(* Budgets never overshoot, on all three loops                          *)
(* ------------------------------------------------------------------ *)

let leader_workload seed =
  let g = G.Builders.cycle 12 in
  let rng = Rng.create seed in
  let inputs = Leader.random_ids rng g in
  let params = Core.Transformer.params Leader.algo in
  let start =
    Core.Transformer.corrupt rng ~max_height:8 params
      (Core.Transformer.clean_config params g ~inputs)
  in
  (params, Core.Transformer.algorithm params, start)

let qcheck_budget_no_overshoot =
  let open QCheck in
  let opt_cap = Gen.oneof [ Gen.return None; Gen.map Option.some (Gen.int_range 0 60) ] in
  let gen = Gen.quad opt_cap opt_cap opt_cap (Gen.int_range 1 1000) in
  Test.make ~count:60
    ~name:"Budget caps are hard bounds on run, run_naive and Msgnet.run"
    (make gen) (fun (steps, moves, deliveries, seed) ->
      let budget = { Budget.unlimited with steps; moves; deliveries } in
      let params, algo, start = leader_workload seed in
      let within cap v = match cap with None -> true | Some c -> v <= c in
      let engine_ok (stats : _ Engine.stats) =
        within steps stats.Engine.steps
        && within moves stats.Engine.moves
        && (stats.Engine.terminated = (stats.Engine.outcome = Budget.Completed))
      in
      let daemon = Sim.Daemon.central_random (Rng.create (seed + 1)) in
      let s1 = Engine.run ~budget algo daemon start in
      let daemon2 = Sim.Daemon.central_random (Rng.create (seed + 1)) in
      let s2 = Engine.run_naive ~budget algo daemon2 start in
      let _, ms = M.run ~budget ~rng:(Rng.create (seed + 2)) params start in
      engine_ok s1 && engine_ok s2
      && within deliveries ms.M.deliveries
      && (ms.M.quiescent = (ms.M.outcome = Budget.Completed)))

let test_engine_outcome_labels () =
  let _, algo, start = leader_workload 3 in
  let daemon = Sim.Daemon.synchronous in
  let full = Engine.run algo daemon start in
  check "unbounded run completes" true (full.Engine.outcome = Budget.Completed);
  check "completes with moves" true (full.Engine.moves > 0);
  let capped =
    Engine.run ~budget:(Budget.v ~moves:(full.Engine.moves - 1) ()) algo daemon
      start
  in
  check "move cap reported" true
    (capped.Engine.outcome = Budget.Tripped Budget.Moves);
  check_int "hard move cap" (full.Engine.moves - 1) capped.Engine.moves;
  let stepped = Engine.run ~budget:(Budget.v ~steps:1 ()) algo daemon start in
  check "step cap reported" true
    (stepped.Engine.outcome = Budget.Tripped Budget.Steps);
  check_int "one step taken" 1 stepped.Engine.steps

let test_run_synchronous_max_moves () =
  (* Satellite pin: run_synchronous has max_moves parity with run. *)
  let _, algo, start = leader_workload 11 in
  let full = Engine.run_synchronous algo start in
  check "synchronous run completes" true (full.Engine.terminated);
  check "needs several moves" true (full.Engine.moves > 4);
  let capped = Engine.run_synchronous ~max_moves:3 algo start in
  check "max_moves caps hard" true (capped.Engine.moves <= 3);
  check "trip is reported" true
    (capped.Engine.outcome = Budget.Tripped Budget.Moves);
  let budgeted = Engine.run_synchronous ~budget:(Budget.v ~moves:3 ()) algo start in
  check "budget.moves equivalent" true
    (budgeted.Engine.moves = capped.Engine.moves)

let test_sync_runner_budget () =
  let g = G.Builders.path 24 in
  let inputs = Leader.random_ids (Rng.create 5) g in
  let h = Ss_sync.Sync_runner.run Leader.algo g ~inputs in
  check "fixpoint takes rounds" true (h.Ss_sync.Sync_runner.t > 1);
  Alcotest.check_raises "round budget raises"
    (Ss_sync.Sync_runner.Did_not_terminate
       (Printf.sprintf
          "%s did not reach a fixpoint within the 1-round budget (2 rounds)"
          Leader.algo.Ss_sync.Sync_algo.sync_name))
    (fun () ->
      ignore
        (Ss_sync.Sync_runner.run ~budget:(Budget.v ~steps:1 ()) Leader.algo g
           ~inputs))

(* ------------------------------------------------------------------ *)
(* Loop reports and sinks                                               *)
(* ------------------------------------------------------------------ *)

let test_loop_reports () =
  let params, algo, start = leader_workload 9 in
  let stats = Engine.run algo Sim.Daemon.synchronous start in
  let er = Engine.report ~label:"t" ~seed:9 stats in
  check "engine report round-trips" true
    (Run_report.of_json (Run_report.to_json er) = Ok er);
  let g = G.Builders.cycle 8 in
  let inputs = Leader.random_ids (Rng.create 2) g in
  let h = Ss_sync.Sync_runner.run Leader.algo g ~inputs in
  let sr = Ss_sync.Sync_runner.report h in
  check "sync report round-trips" true
    (Run_report.of_json (Run_report.to_json sr) = Ok sr);
  let _, ms = M.run ~rng:(Rng.create 3) params start in
  let mr = M.report ~seed:3 ms in
  check "msgnet report round-trips" true
    (Run_report.of_json (Run_report.to_json mr) = Ok mr)

let test_msgnet_sinks () =
  (* The event hooks must agree with the counters: one Sent per
     message, one Delivered per delivery, one Wave per proof wave, and
     Sent bits must sum to the total-bits accounting. *)
  let params, _, start = leader_workload 13 in
  let sent = ref 0 and delivered = ref 0 and waves = ref 0 and bits = ref 0 in
  let sink = function
    | M.Sent { bits = b; _ } ->
        incr sent;
        bits := !bits + b
    | M.Delivered _ -> incr delivered
    | M.Wave _ -> incr waves
    | M.Dropped _ | M.Duplicated _ | M.Reordered _ | M.Corrupted _ -> ()
  in
  let _, stats = M.run ~rng:(Rng.create 13) ~sinks:[ sink ] params start in
  check "quiescent" true stats.M.quiescent;
  check_int "one Delivered per delivery" stats.M.deliveries !delivered;
  check_int "one Wave per proof wave" stats.M.proof_waves !waves;
  check_int "one Sent per message"
    (stats.M.update_messages + stats.M.proof_messages
   + stats.M.request_messages + stats.M.full_copy_messages)
    !sent;
  check_int "Sent bits match the bit accounting" (M.total_bits stats) !bits;
  (* Sinks are observers: they must not change the execution. *)
  let _, unobserved = M.run ~rng:(Rng.create 13) params start in
  check "sinks do not perturb the run" true
    (M.total_bits unobserved = M.total_bits stats
    && unobserved.M.deliveries = stats.M.deliveries)

let test_engine_sink_bus () =
  let _, algo, start = leader_workload 17 in
  let obs_events = ref 0 and sink_a = ref 0 and sink_b = ref 0 in
  let count r ~step:_ ~rounds:_ ~moved:_ _config = incr r in
  let stats =
    Engine.run ~observer:(count obs_events)
      ~sinks:[ count sink_a; count sink_b ]
      algo Sim.Daemon.synchronous start
  in
  check "run completed" true stats.Engine.terminated;
  (* Every sink on the bus sees every event (initial + one per step). *)
  check_int "observer events" (stats.Engine.steps + 1) !obs_events;
  check_int "first sink events" !obs_events !sink_a;
  check_int "second sink events" !obs_events !sink_b

(* ------------------------------------------------------------------ *)
(* Trace: CSV quoting and JSON                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_csv_quoting () =
  let events =
    [
      {
        Sim.Trace.ev_step = 1;
        ev_rounds = 0;
        ev_moved = [ (4, "RU"); (5, "a,b") ];
      };
      { Sim.Trace.ev_step = 2; ev_rounds = 1; ev_moved = [ (6, "q\"r") ] };
      { Sim.Trace.ev_step = 3; ev_rounds = 1; ev_moved = [ (7, "x\ny") ] };
    ]
  in
  check_str "RFC 4180 quoting"
    "step,rounds,node,rule\n\
     1,0,4,RU\n\
     1,0,5,\"a,b\"\n\
     2,1,6,\"q\"\"r\"\n\
     3,1,7,\"x\ny\"\n"
    (Sim.Trace.to_csv events);
  match Sim.Trace.to_json events with
  | Json.List rows ->
      check_int "one JSON row per move" 4 (List.length rows);
      check "json rows round-trip" true (roundtrip (Sim.Trace.to_json events))
  | _ -> Alcotest.fail "trace JSON is not a list"

let test_trace_csv_sink () =
  (* The streaming sink and the batch serializer agree. *)
  let _, algo, start = leader_workload 21 in
  let observer, events = Sim.Trace.make () in
  let csv_obs, csv = Sim.Trace.csv_sink () in
  let _ =
    Engine.run ~sinks:[ observer; csv_obs ] algo Sim.Daemon.synchronous start
  in
  check_str "csv_sink streams to_csv" (Sim.Trace.to_csv (events ())) (csv ())

(* ------------------------------------------------------------------ *)

let qcheck_tests = [ qcheck_table_equivalence; qcheck_budget_no_overshoot ]

let () =
  Alcotest.run "report"
    [
      ( "json",
        [
          Alcotest.test_case "emit" `Quick test_json_emit;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        ] );
      ( "budget",
        [
          Alcotest.test_case "resolve" `Quick test_budget_resolve;
          Alcotest.test_case "outcome strings" `Quick
            test_budget_outcome_strings;
          Alcotest.test_case "deadline check" `Quick test_deadline_check;
          Alcotest.test_case "deadline check allocates nothing" `Quick
            test_deadline_check_alloc_free;
          Alcotest.test_case "deadline monotonic" `Quick
            test_deadline_monotonic;
        ] );
      ( "run_report",
        [
          Alcotest.test_case "roundtrip" `Quick test_run_report_roundtrip;
          Alcotest.test_case "loop reports" `Quick test_loop_reports;
        ] );
      ( "tables",
        [
          Alcotest.test_case "real experiment tables" `Slow
            test_table_equivalence_real;
        ] );
      ( "budget-loops",
        [
          Alcotest.test_case "engine outcomes" `Quick
            test_engine_outcome_labels;
          Alcotest.test_case "run_synchronous max_moves" `Quick
            test_run_synchronous_max_moves;
          Alcotest.test_case "sync runner budget" `Quick
            test_sync_runner_budget;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "engine sink bus" `Quick test_engine_sink_bus;
          Alcotest.test_case "msgnet sinks" `Quick test_msgnet_sinks;
        ] );
      ( "trace",
        [
          Alcotest.test_case "csv quoting + json" `Quick
            test_trace_csv_quoting;
          Alcotest.test_case "csv sink" `Quick test_trace_csv_sink;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
