open Testutil

(* --- spec strings ------------------------------------------------- *)

let test_spec_roundtrip () =
  let p =
    {
      Faultsim.Plan.seed = 42;
      action_fail = 0.2;
      persist = 0.05;
      straggle = 0.1;
      straggle_factor = 4.0;
      corrupt = 0.15;
      shard_drop = 0.08;
      shards = 32;
      max_attempts = 6;
      backoff_base = 0.25;
      backoff_mult = 3.0;
    }
  in
  match Faultsim.Plan.of_spec (Faultsim.Plan.to_spec p) with
  | Error e -> Alcotest.failf "round-trip rejected: %s" e
  | Ok q -> check tb "round-trips" true (p = q)

let test_spec_defaults () =
  (* Unset keys keep their defaults; only the named key moves. *)
  match Faultsim.Plan.of_spec "seed=7,action=0.3" with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok p ->
    check ti "seed" 7 p.Faultsim.Plan.seed;
    check tb "action" true (Float.equal p.Faultsim.Plan.action_fail 0.3);
    check tb "persist default" true
      (Float.equal p.Faultsim.Plan.persist no_faults.persist);
    check ti "shards default" no_faults.shards p.Faultsim.Plan.shards;
    check ti "attempts default" no_faults.max_attempts
      p.Faultsim.Plan.max_attempts

let test_spec_errors () =
  let rejects s =
    match Faultsim.Plan.of_spec s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should have been rejected" s
  in
  rejects "action=1.5";
  (* rates live in [0, 1] *)
  rejects "corrupt=-0.1";
  rejects "frobnicate=1";
  (* unknown key *)
  rejects "action=banana";
  (* unparsable value *)
  rejects "action";
  (* missing '=' *)
  rejects "shards=0";
  (* at least one shard *)
  rejects "attempts=0";
  (* at least one attempt *)
  List.iter rejects
    [ "backoff=nan"; "backoff=inf"; "straggle-factor=inf"; "backoff-mult=1e400"; "action=nan" ]
(* numbers are finite *)

(* Specs a user could type: known and unknown keys, in-range,
   out-of-range and non-finite values, junk, and any of them cut short. *)
let spec_gen =
  QCheck.Gen.(
    let keys =
      [ "seed"; "action"; "persist"; "straggle"; "straggle-factor"; "corrupt"; "shard-drop";
        "shards"; "attempts"; "backoff"; "backoff-mult" ]
    in
    let junk = string_size ~gen:printable (int_range 0 8) in
    let value =
      frequency
        [
          (3, map string_of_int (int_range (-5) 100));
          (3, map (Printf.sprintf "%g") (float_range (-2.0) 10.0));
          (3, map (Printf.sprintf "%.17g") (float_range 0.0 1.0));
          ( 2,
            oneofl
              [ "nan"; "inf"; "-inf"; "infinity"; "1e400"; "-1e400"; "1e-320"; "0x1p-3"; "";
                " 0.5 "; "4611686018427387904"; "1_000"; "1e308" ] );
          (1, junk);
        ]
    in
    let kv = map2 (fun k v -> k ^ "=" ^ v) (frequency [ (6, oneofl keys); (1, junk) ]) value in
    let* s =
      map (String.concat ",") (list_size (int_range 1 6) (frequency [ (6, kv); (1, junk) ]))
    in
    let* cut = int_range 0 (String.length s) in
    frequency [ (3, return s); (1, return (String.sub s 0 cut)) ])

let finite_plan (p : Faultsim.Plan.t) =
  List.for_all Float.is_finite
    [ p.action_fail; p.persist; p.straggle; p.straggle_factor; p.corrupt; p.shard_drop;
      p.backoff_base; p.backoff_mult ]

let of_spec_total_law =
  QCheck.Test.make ~count:1000 ~name:"of_spec is total; accepted plans are finite and round-trip"
    (QCheck.make ~print:(Printf.sprintf "%S") spec_gen)
    (fun s ->
      match Faultsim.Plan.of_spec s with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok p -> finite_plan p && Faultsim.Plan.of_spec (Faultsim.Plan.to_spec p) = Ok p)

let test_is_active () =
  check tb "default inactive" false (Faultsim.Plan.is_active no_faults);
  check tb "seed alone inactive" false
    (Faultsim.Plan.is_active { no_faults with seed = 99 });
  check tb "one positive rate activates" true
    (Faultsim.Plan.is_active { no_faults with corrupt = 0.01 })

(* --- backoff schedule --------------------------------------------- *)

let test_backoff_schedule () =
  let p = no_faults in
  (* Defaults: 0.5 s base, doubling — a geometric schedule. *)
  check tf "retry 1" 0.5 (Faultsim.Plan.backoff_seconds p ~retry:1);
  check tf "retry 2" 1.0 (Faultsim.Plan.backoff_seconds p ~retry:2);
  check tf "retry 3" 2.0 (Faultsim.Plan.backoff_seconds p ~retry:3);
  check tf "retry 4" 4.0 (Faultsim.Plan.backoff_seconds p ~retry:4);
  let q = { p with Faultsim.Plan.backoff_base = 0.1; backoff_mult = 3.0 } in
  check tf "custom base" 0.1 (Faultsim.Plan.backoff_seconds q ~retry:1);
  check tf "custom growth" 0.9 (Faultsim.Plan.backoff_seconds q ~retry:3);
  Alcotest.check_raises "retry 0 rejected"
    (Invalid_argument "Plan.backoff_seconds: retry must be >= 1") (fun () ->
      ignore (Faultsim.Plan.backoff_seconds p ~retry:0))

let test_retry_cost () =
  let p = no_faults in
  check tf "no retries, no cost" 0.0 (Faultsim.Plan.retry_cost p ~attempts:1 ~cpu_seconds:3.0);
  (* attempts=3: two failed 2.0 s runs + backoffs 0.5 and 1.0. *)
  check tf "two retries" 5.5 (Faultsim.Plan.retry_cost p ~attempts:3 ~cpu_seconds:2.0)

(* --- keyed decisions ---------------------------------------------- *)

let keys n = List.init n (Printf.sprintf "unit_%d")

let test_attempts_bounds () =
  let p = { no_faults with action_fail = 0.5; max_attempts = 4 } in
  List.iter
    (fun key ->
      let a = Faultsim.Plan.attempts_for p ~key in
      if a < 1 || a > 4 then Alcotest.failf "attempts_for %s = %d out of [1,4]" key a)
    (keys 200)

let test_attempts_forced_success () =
  (* Even a certain-failure rate succeeds on the last attempt: the
     link must always complete. *)
  let p = { no_faults with action_fail = 1.0; max_attempts = 3 } in
  List.iter
    (fun key -> check ti key 3 (Faultsim.Plan.attempts_for p ~key))
    (keys 20);
  let q = { no_faults with action_fail = 0.0 } in
  List.iter (fun key -> check ti key 1 (Faultsim.Plan.attempts_for q ~key)) (keys 20)

let test_decision_determinism () =
  let p = { no_faults with action_fail = 0.3; corrupt = 0.3; straggle = 0.3 } in
  List.iter
    (fun key ->
      check ti "attempts replay" (Faultsim.Plan.attempts_for p ~key)
        (Faultsim.Plan.attempts_for p ~key);
      check tb "corrupt replays" (Faultsim.Plan.corrupts p ~key)
        (Faultsim.Plan.corrupts p ~key);
      check tb "straggle replays" (Faultsim.Plan.straggles p ~key)
        (Faultsim.Plan.straggles p ~key))
    (keys 50)

let test_decision_distribution () =
  (* The keyed hash behaves like a uniform draw: over many keys the
     hit fraction tracks the configured rate. *)
  let p = { no_faults with corrupt = 0.3 } in
  let hits =
    List.length (List.filter (fun key -> Faultsim.Plan.corrupts p ~key) (keys 2000))
  in
  let frac = float_of_int hits /. 2000.0 in
  if frac < 0.25 || frac > 0.35 then
    Alcotest.failf "corrupt fraction %.3f far from rate 0.3" frac

let test_seed_independence () =
  let p = { no_faults with action_fail = 0.5 } in
  let q = { p with Faultsim.Plan.seed = p.Faultsim.Plan.seed + 1 } in
  let differs =
    List.exists
      (fun key ->
        Faultsim.Plan.attempts_for p ~key <> Faultsim.Plan.attempts_for q ~key)
      (keys 100)
  in
  check tb "seeds give independent streams" true differs

(* --- shards ------------------------------------------------------- *)

let test_shard_assignment () =
  let p = { no_faults with shard_drop = 0.25; shards = 16 } in
  List.iter
    (fun key ->
      let s = Faultsim.Plan.shard_of p ~key in
      if s < 0 || s >= 16 then Alcotest.failf "shard_of %s = %d out of [0,16)" key s;
      check ti "shard replays" s (Faultsim.Plan.shard_of p ~key))
    (keys 100)

let test_dropped_shards () =
  let p = { no_faults with shard_drop = 0.3; shards = 16 } in
  let dropped = Faultsim.Plan.dropped_shards p in
  check tb "ascending" true (List.sort compare dropped = dropped);
  List.iter
    (fun s ->
      check tb
        (Printf.sprintf "shard %d listing matches predicate" s)
        (List.mem s dropped)
        (Faultsim.Plan.shard_dropped p ~shard:s))
    (List.init 16 Fun.id);
  let clean = { p with Faultsim.Plan.shard_drop = 0.0 } in
  check ti "no drops at rate 0" 0 (List.length (Faultsim.Plan.dropped_shards clean))

let suite =
  [
    Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    QCheck_alcotest.to_alcotest of_spec_total_law;
    Alcotest.test_case "is_active" `Quick test_is_active;
    Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "retry cost" `Quick test_retry_cost;
    Alcotest.test_case "attempts bounds" `Quick test_attempts_bounds;
    Alcotest.test_case "forced last-attempt success" `Quick test_attempts_forced_success;
    Alcotest.test_case "decision determinism" `Quick test_decision_determinism;
    Alcotest.test_case "decision distribution" `Quick test_decision_distribution;
    Alcotest.test_case "seed independence" `Quick test_seed_independence;
    Alcotest.test_case "shard assignment" `Quick test_shard_assignment;
    Alcotest.test_case "dropped shards" `Quick test_dropped_shards;
  ]
