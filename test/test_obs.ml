open Testutil

(* --- Clock -------------------------------------------------------- *)

let test_clock () =
  let c = Obs.Clock.create () in
  check tf "starts at zero" 0.0 (Obs.Clock.now c);
  Obs.Clock.advance c 1.5;
  Obs.Clock.advance c 0.25;
  check tf "accumulates" 1.75 (Obs.Clock.now c);
  (try
     Obs.Clock.advance c (-1.0);
     Alcotest.fail "expected rejection of negative advance"
   with Invalid_argument _ -> ())

(* --- Spans -------------------------------------------------------- *)

let test_span_nesting () =
  let clk = Obs.Clock.create () in
  let t = Obs.Trace.create clk in
  Obs.Trace.with_span t "outer" (fun () ->
      Obs.Clock.advance clk 1.0;
      Obs.Trace.with_span t "inner_a" (fun () -> Obs.Clock.advance clk 2.0);
      Obs.Trace.with_span t "inner_b" (fun () -> Obs.Clock.advance clk 3.0));
  let spans = trace_spans t in
  check ti "three spans" 3 (List.length spans);
  check (Alcotest.list ts) "parent precedes children in export order"
    [ "outer"; "inner_a"; "inner_b" ]
    (List.map (fun s -> s.sname) spans);
  let find name = List.find (fun s -> s.sname = name) spans in
  let outer = find "outer" and a = find "inner_a" and b = find "inner_b" in
  check ti "outer depth" 0 outer.sdepth;
  check ti "inner depth" 1 a.sdepth;
  check tf "outer covers the whole interval" 6.0 outer.sdur;
  check tf "inner_a start" 1.0 a.sstart;
  check tf "inner_a duration" 2.0 a.sdur;
  check tf "inner_b starts after inner_a" 3.0 b.sstart;
  check tb "children inside parent" true
    (a.sstart >= outer.sstart && b.sstart +. b.sdur <= outer.sstart +. outer.sdur)

let test_span_closed_on_exception () =
  let clk = Obs.Clock.create () in
  let t = Obs.Trace.create clk in
  (try
     Obs.Trace.with_span t "boom" (fun () ->
         Obs.Clock.advance clk 1.0;
         failwith "inner failure")
   with Failure _ -> ());
  match trace_spans t with
  | [ s ] ->
    check ts "span closed despite raise" "boom" s.sname;
    check tf "duration up to the raise" 1.0 s.sdur
  | l -> Alcotest.failf "expected exactly one span, got %d" (List.length l)

(* --- Metrics ------------------------------------------------------ *)

let test_counter_accounting () =
  let m = Obs.Metrics.create () in
  check ti "unknown counter reads 0" 0 (counter (Obs.Metrics.to_json m) "c");
  Obs.Metrics.incr_counter m "c";
  Obs.Metrics.add_counter m "c" 41;
  check ti "incr + add" 42 (counter (Obs.Metrics.to_json m) "c");
  (try
     Obs.Metrics.add_counter m "c" (-1);
     Alcotest.fail "expected rejection of negative counter add"
   with Invalid_argument _ -> ());
  Obs.Metrics.set_gauge m "g" 2.5;
  Obs.Metrics.set_gauge m "g" 7.5;
  check tb "gauge is last-write-wins" true
    (metric "gauges" "g" (Obs.Metrics.to_json m) = Some (Obs.Json.Float 7.5));
  Obs.Metrics.incr_counter m "b";
  check tb "counters sorted by name" true
    (Obs.Json.member "counters" (Obs.Metrics.to_json m)
    = Some (Obs.Json.Obj [ ("b", Obs.Json.Int 1); ("c", Obs.Json.Int 42) ]))

let test_histogram_summary () =
  let m = Obs.Metrics.create () in
  check tb "empty histogram has no summary" true
    (metric "histograms" "h" (Obs.Metrics.to_json m) = None);
  List.iter (Obs.Metrics.observe m "h") [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let s = summary_field m in
  check tf "count" 8.0 (s "count");
  check tf "sum" 40.0 (s "sum");
  check tf "mean" 5.0 (s "mean");
  check tf "stddev" 2.0 (s "stddev");
  check tf "min" 2.0 (s "min");
  check tf "max" 9.0 (s "max");
  check tf "median" 4.5 (s "median")

(* Interpolated percentiles are exact at tiny sample counts — the
   single-observation histograms phase timing produces must not report
   a zero or out-of-range p99. *)
let test_histogram_small_counts () =
  let summ vals =
    let m = Obs.Metrics.create () in
    List.iter (Obs.Metrics.observe m "h") vals;
    summary_field m
  in
  let s1 = summ [ 7.0 ] in
  check tf "n=1 median" 7.0 (s1 "median");
  check tf "n=1 p90" 7.0 (s1 "p90");
  check tf "n=1 p99" 7.0 (s1 "p99");
  let s2 = summ [ 1.0; 2.0 ] in
  check tf "n=2 median interpolates" 1.5 (s2 "median");
  check tf "n=2 p90" 1.9 (s2 "p90");
  check tf "n=2 p99" 1.99 (s2 "p99");
  (* Support.Stats must agree byte-for-byte (two implementations, one
     contract — obs cannot depend on support). *)
  List.iter
    (fun (p, expect) ->
      check tf
        (Printf.sprintf "stats p%g agrees" p)
        expect
        (Support.Stats.percentile p [ 1.0; 2.0 ]))
    [ (50.0, 1.5); (90.0, 1.9); (99.0, 1.99) ]

(* --- Chrome trace export ------------------------------------------ *)

let test_chrome_trace_well_formed () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_span r "build" (fun () ->
      Obs.Recorder.advance r 0.5;
      Obs.Recorder.with_span r "link" (fun () -> Obs.Recorder.advance r 0.25));
  Obs.Recorder.counter_sample r "cache" [ ("hits", 3.0); ("misses", 1.0) ];
  let text = Obs.Recorder.trace_json r in
  match Obs.Json.parse text with
  | Error e -> Alcotest.failf "exported trace does not re-parse: %s" e
  | Ok json -> (
    match Obs.Json.member "traceEvents" json with
    | Some (Obs.Json.List events) ->
      (* 2 spans + 1 counter sample. *)
      check ti "event count" 3 (List.length events);
      List.iter
        (fun ev ->
          let str_field f =
            match Obs.Json.member f ev with
            | Some (Obs.Json.String s) -> s
            | _ -> Alcotest.failf "event missing string field %S" f
          in
          let int_field f =
            match Obs.Json.member f ev with
            | Some (Obs.Json.Int i) -> i
            | _ -> Alcotest.failf "event missing int field %S" f
          in
          check tb "phase is X or C" true
            (match str_field "ph" with "X" -> true | "C" -> true | _ -> false);
          check tb "ts is non-negative microseconds" true (int_field "ts" >= 0);
          if str_field "ph" = "X" then
            check tb "complete events carry a duration" true (int_field "dur" >= 0))
        events;
      let link_events =
        List.filter
          (fun ev ->
            Obs.Json.member "name" ev = Some (Obs.Json.String "link"))
          events
      in
      (match link_events with
      | [ ev ] ->
        check tb "simulated timestamps survive the µs conversion" true
          (Obs.Json.member "ts" ev = Some (Obs.Json.Int 500_000)
          && Obs.Json.member "dur" ev = Some (Obs.Json.Int 250_000))
      | _ -> Alcotest.fail "expected exactly one link event")
    | _ -> Alcotest.fail "missing traceEvents array")

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\\c\n\t \xe2\x9c\x93");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("l", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("o", Obs.Json.Obj []);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok v' ->
    check ts "round-trip preserves the tree" (Obs.Json.to_string v)
      (Obs.Json.to_string v');
    check tb "garbage is rejected" true
      (match Obs.Json.parse "{\"a\": }" with Error _ -> true | Ok _ -> false)

(* --- Parser totality ------------------------------------------------ *)

(* [parse] is total: any input gives [Ok] or [Error], never an
   exception. *)
let total text =
  match Obs.Json.parse text with
  | Ok _ | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "parse raised %s on %S" (Printexc.to_string e)
      (if String.length text > 80 then String.sub text 0 80 ^ "..." else text)

let gen_json =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "traceEvents"; "\xff\xfe"; "" ] in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float f) float;
        map (fun s -> Obs.Json.String s) (string_size ~gen:char (int_bound 12));
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n - 1))));
               (* Duplicate keys are likely: the key pool is small. *)
               ( 2,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_bound 4) (pair key (self (n - 1)))) );
             ])

let json_truncated_law =
  QCheck.Test.make ~count:500 ~name:"json: truncated documents never raise"
    (QCheck.make
       ~print:(fun (v, cut) -> Printf.sprintf "%s cut at %d" (Obs.Json.to_string v) cut)
       QCheck.Gen.(pair gen_json nat))
    (fun (v, cut) ->
      let text = Obs.Json.to_string v in
      total (String.sub text 0 (cut mod (String.length text + 1))))

(* Random bytes, including non-UTF-8 and control bytes, alone and
   spliced into a valid document. *)
let json_bytes_law =
  QCheck.Test.make ~count:500 ~name:"json: random bytes never raise"
    (QCheck.make ~print:(fun (a, _, _) -> String.escaped a)
       QCheck.Gen.(triple (string_size ~gen:char (int_bound 64)) gen_json nat))
    (fun (bytes, v, at) ->
      let text = Obs.Json.to_string v in
      let at = at mod (String.length text + 1) in
      total bytes
      && total (String.sub text 0 at ^ bytes ^ String.sub text at (String.length text - at)))

let test_json_hostile_inputs () =
  let deep = 1_000_000 in
  let nest opening closing = String.make deep opening ^ String.make deep closing in
  let objects =
    let b = Buffer.create (7 * deep) in
    for _ = 1 to deep do
      Buffer.add_string b "{\"a\":"
    done;
    Buffer.add_string b "0";
    Buffer.add_string b (String.make deep '}');
    Buffer.contents b
  in
  List.iter
    (fun (label, text) -> check tb label true (total text))
    [
      ("deep arrays", nest '[' ']');
      ("deep unterminated arrays", String.make deep '[');
      ("deep objects", objects);
      ("duplicate keys", "{\"a\":1,\"a\":[2],\"a\":{\"a\":3}}");
      ("non-UTF-8 string", "\"\xff\xc0\x80\xed\xa0\x80\"");
      ("non-UTF-8 key", "{\"\xfe\":\"\xc3\"}");
      ("escape at the end", "\"\\u12");
      ("bad escape", "\"\\uZZZZ\"");
      ("lone minus", "-");
      ("huge integer", String.make 400 '9');
    ];
  check tb "duplicate keys parse" true
    (Result.is_ok (Obs.Json.parse "{\"a\":1,\"a\":2}"));
  (* Nesting is bounded, so the recursion never outgrows the stack. *)
  check tb "1000 levels parse" true
    (Result.is_ok (Obs.Json.parse (String.make 1000 '[' ^ String.make 1000 ']')));
  check tb "1001 levels are an error" true
    (Result.is_error (Obs.Json.parse (String.make 1001 '[' ^ String.make 1001 ']')));
  check tb "a million levels are an error" true (Result.is_error (Obs.Json.parse (nest '[' ']')))

(* --- Determinism -------------------------------------------------- *)

(* Two identical pipeline runs against fresh recorders must export
   byte-identical metrics and traces: everything recorded is a function
   of the simulated cost models, never of wall-clock or iteration
   order. This is the property that makes telemetry diffable across
   hosts and CI runs. *)
let test_pipeline_telemetry_deterministic () =
  let one_run () =
    let spec, program = medium_program () in
    let recorder = Obs.Recorder.create () in
    let env = Buildsys.Driver.make_env ~ctx:(ctx ~recorder ()) () in
    let (_ : Propeller.Pipeline.result) =
      Propeller.Pipeline.run
        ~config:
          {
            Propeller.Pipeline.default_config with
            profile_run = { Exec.Interp.default_config with requests = spec.requests };
          }
        ~env ~program ~name:"testprog" ()
    in
    (Obs.Recorder.metrics_json recorder, Obs.Recorder.trace_json recorder)
  in
  let m1, t1 = one_run () in
  let m2, t2 = one_run () in
  check ts "metrics byte-identical" m1 m2;
  check ts "trace byte-identical" t1 t2;
  check tb "metrics export non-trivial" true (String.length m1 > 100);
  check tb "runs actually recorded phase spans" true
    (String.length t1 > 100)

let test_pipeline_phase_spans () =
  let spec, program = medium_program () in
  let recorder = Obs.Recorder.create () in
  let env = Buildsys.Driver.make_env ~ctx:(ctx ~recorder ()) () in
  let result =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = spec.requests };
        }
      ~env ~program ~name:"testprog" ()
  in
  let spans = trace_spans (Obs.Recorder.trace recorder) in
  let one name =
    match List.filter (fun s -> s.sname = name) spans with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one %S span, got %d" name (List.length l)
  in
  (* The export keeps whole microseconds. *)
  let tus = Alcotest.float 1e-6 in
  let meta = one "phase:metadata_build" in
  let prof = one "phase:profiling" in
  let wpa = one "phase:wpa" in
  let opt = one "phase:optimized_build" in
  (* Span durations are the phase_times, on the same simulated clock. *)
  check tus "metadata span = phase time" result.times.metadata_build_s meta.sdur;
  check tus "profiling span = load-test window" result.times.profiling_s prof.sdur;
  check tus "wpa span = conversion time" result.times.conversion_s wpa.sdur;
  check tus "optimize span = phase time" result.times.optimize_build_s opt.sdur;
  check tb "phases are ordered on the clock" true
    (meta.sstart +. meta.sdur <= prof.sstart
    && prof.sstart +. prof.sdur <= wpa.sstart
    && wpa.sstart +. wpa.sdur <= opt.sstart);
  (* Cache traffic of all three builds (baseline-less run: pm + po)
     lands in the env recorder's counters. *)
  let metrics = parse_json (Obs.Recorder.metrics_json recorder) in
  check ti "cache counters cover all units"
    (2 * List.length (Ir.Program.units program))
    (counter metrics "buildsys.cache.hits" + counter metrics "buildsys.cache.misses");
  check tb "some relaxation recorded" true (counter metrics "linker.relax.iters" > 0)

let suite =
  [
    Alcotest.test_case "clock: simulated time" `Quick test_clock;
    Alcotest.test_case "trace: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "trace: exception safety" `Quick test_span_closed_on_exception;
    Alcotest.test_case "metrics: counters and gauges" `Quick test_counter_accounting;
    Alcotest.test_case "metrics: histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "metrics: small-count percentiles" `Quick test_histogram_small_counts;
    Alcotest.test_case "trace: chrome JSON well-formed" `Quick test_chrome_trace_well_formed;
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest json_truncated_law;
    QCheck_alcotest.to_alcotest json_bytes_law;
    Alcotest.test_case "json: hostile inputs never raise" `Quick test_json_hostile_inputs;
    Alcotest.test_case "pipeline: telemetry deterministic" `Quick
      test_pipeline_telemetry_deterministic;
    Alcotest.test_case "pipeline: phase spans" `Quick test_pipeline_phase_spans;
  ]
