open Testutil

(* The domain pool's contract: identical results for any width, sane
   fan-out accounting, deterministic exception propagation, and safe
   nesting. *)

let test_empty_batch () =
  Support.Pool.with_pool ~jobs:4 (fun pool ->
      check ti "0 tasks -> empty array" 0
        (Array.length (Support.Pool.map_array pool 0 (fun _ -> Alcotest.fail "task ran"))))

let test_map_identical_across_jobs () =
  let n = 500 in
  let task i = (i * i) + (i mod 7) in
  let seq = Array.init n task in
  List.iter
    (fun jobs ->
      Support.Pool.with_pool ~jobs (fun pool ->
          let got = Support.Pool.map_array pool n task in
          check tb (Printf.sprintf "map_array jobs=%d matches sequential" jobs) true
            (got = seq)))
    [ 1; 2; 4; 8 ]

let test_exception_lowest_index_wins () =
  Support.Pool.with_pool ~jobs:4 (fun pool ->
      match
        Support.Pool.map_array pool 100 (fun i ->
            if i mod 10 = 3 then failwith (Printf.sprintf "boom%d" i);
            i)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* Tasks 3, 13, 23, ... all raise; the batch must deterministically
           report the lowest raising index. *)
        check Alcotest.string "lowest-index exception" "boom3" msg)

let test_exception_pool_survives () =
  Support.Pool.with_pool ~jobs:2 (fun pool ->
      (try ignore (Support.Pool.map_array pool 10 (fun _ -> failwith "die"))
       with Failure _ -> ());
      let ok = Support.Pool.map_array pool 10 Fun.id in
      check tb "pool usable after a failed batch" true (ok = Array.init 10 Fun.id))

let test_nested_map_reduce () =
  Support.Pool.with_pool ~jobs:4 (fun pool ->
      (* Each outer task fans out again on the same pool; inner batches
         must run inline (no deadlock) and produce correct sums. *)
      let got =
        Support.Pool.map_array pool 8 (fun i ->
            Array.fold_left ( + ) 0 (Support.Pool.map_array pool 10 (fun j -> (i * 10) + j)))
      in
      let expected = Array.init 8 (fun i -> (i * 100) + 45) in
      check tb "nested batches correct" true (got = expected))

let test_jobs1_runs_inline_in_order () =
  Support.Pool.with_pool ~jobs:1 (fun pool ->
      let trail = ref [] in
      ignore (Support.Pool.map_array pool 20 (fun i -> trail := i :: !trail));
      check tb "jobs=1 executes 0..n-1 in order" true
        (List.rev !trail = List.init 20 Fun.id);
      let st = Support.Pool.stats pool in
      check ti "single worker lane" 1 (Array.length st.tasks_per_worker);
      check ti "no steals at jobs=1" 0 st.steals)

let test_stats_account_all_tasks () =
  Support.Pool.with_pool ~jobs:4 (fun pool ->
      Support.Pool.reset_stats pool;
      ignore (Support.Pool.map_array pool 300 Fun.id);
      let st = Support.Pool.stats pool in
      check ti "every task accounted to some worker" 300
        (Array.fold_left ( + ) 0 st.tasks_per_worker);
      check ti "one batch recorded" 1 st.batches;
      Support.Pool.reset_stats pool;
      let st = Support.Pool.stats pool in
      check ti "reset clears tasks" 0 (Array.fold_left ( + ) 0 st.tasks_per_worker))

let test_shutdown_idempotent () =
  (* [with_pool] shuts its pool down, even while someone still holds
     it; a shut-down pool degrades to inline sequential execution. *)
  let pool =
    Support.Pool.with_pool ~jobs:3 (fun pool ->
        ignore (Support.Pool.map_array pool 50 Fun.id);
        pool)
  in
  let got = Support.Pool.map_array pool 5 (fun i -> i + 1) in
  check tb "post-shutdown batches run inline" true (got = [| 1; 2; 3; 4; 5 |])

(* There is no process-wide default width: the width a caller passes is
   the width of its pool and of the context built on it, and a width
   below 1 is rejected. *)
let test_default_jobs_plumbing () =
  Support.Pool.with_pool ~jobs:3 (fun pool ->
      check ti "pool has the width it was made with" 3 (Support.Pool.jobs pool);
      let ctx = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~pool () in
      check ti "context carries its caller's pool" 3 (Support.Pool.jobs ctx.pool));
  (try
     ignore (Support.Pool.create ~jobs:0 : Support.Pool.t);
     Alcotest.fail "create accepted jobs=0"
   with Invalid_argument _ -> ());
  try
    Support.Pool.with_pool ~jobs:0 (fun _ -> Alcotest.fail "with_pool ran at jobs=0")
  with Invalid_argument _ -> ()

(* The claim law on batches whose cost is skewed by index, so shares
   drain unevenly and workers claim from each other: every index runs
   exactly once, results come back in index order, every task is
   accounted to one worker, and a steal is a task, so there are at most
   [n]. The same batch at jobs 1 runs with no steals. *)
let claim_law =
  QCheck.Test.make ~count:30 ~name:"claims: each index once, in order, steals bounded"
    QCheck.(pair (int_range 2 4) (int_range 0 2000))
    (fun (jobs, n) ->
      let task i =
        (* The first quarter of the batch is 200 times dearer. *)
        let acc = ref i in
        for k = 1 to (if 4 * i < n then 2000 else 10) do
          acc := Sys.opaque_identity ((!acc * 31) + k) land 0xffff
        done;
        !acc
      in
      let expected = Array.init n task in
      let run jobs =
        Support.Pool.with_pool ~jobs (fun pool ->
            let runs = Array.init n (fun _ -> Atomic.make 0) in
            let got = Support.Pool.map_array pool n (fun i -> Atomic.incr runs.(i); task i) in
            let st = Support.Pool.stats pool in
            if not (Array.for_all (fun c -> Atomic.get c = 1) runs) then
              QCheck.Test.fail_reportf "jobs=%d n=%d: an index ran other than once" jobs n;
            if got <> expected then
              QCheck.Test.fail_reportf "jobs=%d n=%d: results out of index order" jobs n;
            if Array.fold_left ( + ) 0 st.tasks_per_worker <> n then
              QCheck.Test.fail_reportf "jobs=%d n=%d: tasks_per_worker does not sum to n" jobs n;
            if st.steals > n then
              QCheck.Test.fail_reportf "jobs=%d n=%d: %d steals" jobs n st.steals;
            st.steals)
      in
      ignore (run jobs);
      run 1 = 0)

let suite =
  [
    Alcotest.test_case "empty batch" `Quick test_empty_batch;
    Alcotest.test_case "map identical across jobs" `Quick test_map_identical_across_jobs;
    Alcotest.test_case "lowest-index exception wins" `Quick test_exception_lowest_index_wins;
    Alcotest.test_case "pool survives failed batch" `Quick test_exception_pool_survives;
    Alcotest.test_case "nested map_reduce is safe" `Quick test_nested_map_reduce;
    Alcotest.test_case "jobs=1 is the sequential path" `Quick test_jobs1_runs_inline_in_order;
    Alcotest.test_case "stats account all tasks" `Quick test_stats_account_all_tasks;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "default jobs plumbing" `Quick test_default_jobs_plumbing;
    QCheck_alcotest.to_alcotest claim_law;
  ]
