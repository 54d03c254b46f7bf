(* Unit tests of the benchmark's statistics helpers and output format. *)

open Relinkbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let () =
  (* Medians: odd and even lengths, order-independent. *)
  check "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  (* Quartiles match Python's statistics.quantiles(xs, n=4):
     quantiles([1..10]) = [2.75, 5.5, 8.25];
     quantiles([1, 2]) = [0.75, 1.5, 2.25] (extrapolated);
     quantiles([5, 1, 4, 2, 3]) = [1.5, 3.0, 4.5]. *)
  let q = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (q = (2.75, 5.5, 8.25));
  let q1, q2, q3 = Stats.quartiles [ 1.0; 2.0 ] in
  check "quartiles two samples" (close q1 0.75 && close q2 1.5 && close q3 2.25);
  check "quartiles unsorted" (Stats.quartiles [ 5.0; 1.0; 4.0; 2.0; 3.0 ] = (1.5, 3.0, 4.5));
  check "quartiles one sample raises"
    (match Stats.quartiles [ 1.0 ] with _ -> false | exception Invalid_argument _ -> true);
  (* Tail level: the highest percentile with at least ten samples beyond it. *)
  check "tail n=9" (Stats.tail_level 9 = None);
  check "tail n=19" (Stats.tail_level 19 = None);
  check "tail n=20" (Stats.tail_level 20 = Some 50.0);
  check "tail n=40" (Stats.tail_level 40 = Some 75.0);
  check "tail n=100" (Stats.tail_level 100 = Some 90.0);
  check "tail n=199" (Stats.tail_level 199 = Some 90.0);
  check "tail n=200" (Stats.tail_level 200 = Some 95.0);
  check "tail n=1000" (Stats.tail_level 1000 = Some 99.0);
  check "tail n=10000" (Stats.tail_level 10000 = Some 99.9);
  (* Output format: every metric line and the summary line re-parse
     with Obs.Json.parse, and values keep every digit. *)
  let m =
    { Jsonl.name = "op_ms_p50"; value = 812.3456789012345; unit_ = "ms"; better = "lower"; n = 25 }
  in
  let whole = { m with name = "setup_s"; value = 3.0; unit_ = "s" } in
  List.iter
    (fun m ->
      match Obs.Json.parse (Jsonl.metric_line ~workload:"cold-clang" m) with
      | Ok v ->
        check "metric name" (Obs.Json.member "metric" v = Some (String m.name));
        check "metric value exact" (Obs.Json.member "value" v = Some (Float m.value));
        check "metric unit" (Obs.Json.member "unit" v = Some (String m.unit_))
      | Error e -> check ("metric line parses: " ^ e) false)
    [ m; whole ];
  (match Obs.Json.parse (Jsonl.summary_line ~correct:true ~attempted:3 ~failed:0 [ m; whole ]) with
  | Ok v ->
    check "summary keys"
      (List.map fst (Jsonl.to_assoc v) = [ "correct"; "attempted"; "failed"; "metrics" ]);
    check "summary value"
      (Option.bind (Obs.Json.member "metrics" v) (Obs.Json.member "op_ms_p50")
      = Some (Obj [ ("value", Float m.value); ("unit", String "ms") ]))
  | Error e -> check ("summary line parses: " ^ e) false);
  List.iter
    (fun f ->
      check (Printf.sprintf "float %h round-trips" f) (float_of_string (Jsonl.float_repr f) = f))
    [ 0.1; 1.0 /. 3.0; 1e-300; 123456789.125; -2.5e17 ];
  if !failures > 0 then exit 1;
  print_endline "relinkbench: stats and output format tests passed"
