(* The relink and simulator benchmark (README.md).

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --write-golden FILE

   A run is a closed loop with one client: one program at a time, each
   in a fresh child process of this executable, until [--seconds] have
   passed. It prints one JSON line per metric, then a summary line
   {"correct", "attempted", "failed", "metrics"}, and exits 1 if any op
   failed. With [--trace 1] every program runs twice, untraced and then
   traced, the metrics are the per-layer ones, and the spans are written
   to relinkbench/out/. *)

open Relinkbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe --write-golden FILE";
  exit 2

(* ---- children --------------------------------------------------- *)

type child = {
  k : int;
  traced : bool;
  setup_s : float;
  op_s : float list;
  op_mw : float list;
  op_ok : bool list;
  errors : string list;
  digest : string;
  counters : Obs.Json.t;
  rss_mib : float;
  layers : (string * float) list;
  spans : Spans.span list;
  setup_scale : float;
      (** Host speed around the child: nominal over measured kernel time,
          one domain; times [setup_s] to report it. *)
  op_scale : float;  (** The same with the kernel on as many domains as the ops use. *)
}

let child_of_json ~traced v =
  let open Jsonl in
  {
    k = to_int (field "program" v);
    traced;
    setup_s = to_float (field "setup_s" v);
    op_s = floats (field "op_s" v);
    op_mw = floats (field "op_mw" v);
    op_ok =
      List.map
        (function Obs.Json.Bool b -> b | _ -> failwith "bool expected")
        (to_list (field "op_ok" v));
    errors = List.map to_str (to_list (field "errors" v));
    digest = to_str (field "digest" v);
    counters = field "counters" v;
    rss_mib = to_float (field "rss_mib" v);
    layers =
      (if traced then List.map (fun (k, x) -> (k, to_float x)) (to_assoc (field "layers" v))
       else []);
    spans = (if traced then List.map Spans.of_json (to_list (field "spans" v)) else []);
    setup_scale = 1.0;
    op_scale = 1.0;
  }

(* Runs program [k] in a child process; [None] when the child crashed
   or printed no result, which fails every op it owed. *)
let run_child (w : Family.workload) ~seed ~k ~traced =
  let args =
    [|
      Sys.executable_name; "--child"; w.name; string_of_int seed; string_of_int k;
      (if traced then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> (
    try Some (child_of_json ~traced (Jsonl.parse_exn (String.trim out)))
    with Failure e ->
      Printf.eprintf "program %d: unreadable result: %s\n%!" k e;
      None)
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Printf.eprintf "program %d: child exited with status %d\n%!" k n;
    None

(* [run_child] with the host's speed timed just before and just after
   the child (Hostspeed); the child's timings are reported at the
   nominal speed. *)
let run_scaled_child (w : Family.workload) ~seed ~k ~traced =
  let kernels () =
    let one = Hostspeed.kernel_s ~domains:1 in
    (one, if w.jobs = 1 then one else Hostspeed.kernel_s ~domains:w.jobs)
  in
  let b1, bj = kernels () in
  let c = run_child w ~seed ~k ~traced in
  let a1, aj = kernels () in
  let scale ~domains before after = Hostspeed.nominal_s ~domains *. 2.0 /. (before +. after) in
  Option.map
    (fun c ->
      { c with setup_scale = scale ~domains:1 b1 a1; op_scale = scale ~domains:w.jobs bj aj })
    c

(* ---- checks ----------------------------------------------------- *)

(* The failed ops of one child: its own checks, and the golden compare
   at the golden seed (a missing golden entry fails it too). *)
let failed_ops (w : Family.workload) ~seed c =
  let f = Family.family w.kind in
  let golden_ok =
    match Golden.lookup f ~seed c.k with
    | Some g -> String.equal g.digest c.digest && c.counters = g.counters
    | None -> seed <> Family.default_seed f
  in
  if not golden_ok then
    Printf.eprintf "program %d: output differs from golden.json (digest %s)\n%!" c.k c.digest;
  List.iter (fun e -> Printf.eprintf "program %d: %s\n%!" c.k e) c.errors;
  List.length (List.filter (fun ok -> not (ok && golden_ok)) c.op_ok)

(* Away from the golden seed a cold run's program 0 is relinked once
   more, at --jobs 1 in a fresh process: the cold-clang control must
   reproduce its own digest, and cold-clang-j2 must match --jobs 1. *)
let reference_check (w : Family.workload) ~seed children =
  match (w.kind, List.find_opt (fun c -> c.k = 0) children) with
  | Family.Cold, Some c0 when seed <> Family.default_seed (Family.family w.kind) -> (
    match run_child (Option.get (Family.find "cold-clang")) ~seed ~k:0 ~traced:false with
    | Some r when String.equal r.digest c0.digest -> 0
    | Some _ | None ->
      Printf.eprintf "program 0: --jobs 1 reference relink gives another image\n%!";
      1)
  | _ -> 0

(* ---- metrics ---------------------------------------------------- *)

let metric name value unit_ better n = { Jsonl.name; value; unit_; better; n }

(* A child's op times in ms, at the nominal host speed. *)
let op_ms c = List.map (fun s -> s *. c.op_scale *. 1000.0) c.op_s

let end_to_end children =
  let ms = List.concat_map op_ms children in
  let n_ops = List.length ms and n_programs = List.length children in
  let med xs = Stats.median xs in
  [
    metric "op_ms_p50" (med ms) "ms" "lower" n_ops;
    metric "alloc_mw_per_op" (med (List.concat_map (fun c -> c.op_mw) children)) "Mw" "lower" n_ops;
    metric "peak_rss_mib" (med (List.map (fun c -> c.rss_mib) children)) "MiB" "lower" n_programs;
    metric "setup_s"
      (med (List.map (fun c -> c.setup_s *. c.setup_scale) children))
      "s" "lower" n_programs;
  ]

(* Per-layer figures: per-program means of the traced children, ratios
   from summed counts, and the traced-vs-untraced op wall of each
   program. *)
let per_layer pairs =
  let traced = List.map snd pairs in
  let n = List.length traced in
  let total name = List.fold_left (fun acc c -> acc +. List.assoc name c.layers) 0.0 traced in
  let mean name = if n = 0 then 0.0 else total name /. float_of_int n in
  let ratio a b = if total b = 0.0 then 0.0 else total a /. total b in
  let hit_ratio hits misses =
    let h = total hits and m = total misses in
    if h +. m = 0.0 then 0.0 else h /. (h +. m)
  in
  let overhead =
    Stats.median
      (List.map
         (fun (u, t) -> ((Stats.median (op_ms t) /. Stats.median (op_ms u)) -. 1.0) *. 100.0)
         pairs)
  in
  let lower name unit_ value = metric name value unit_ "lower" n in
  let higher name unit_ value = metric name value unit_ "higher" n in
  let mean_of name unit_ = lower name unit_ (mean name) in
  [
    mean_of "progen.generate_s" "s";
    mean_of "codegen.inline_s" "s";
    mean_of "codegen.compile_s" "s";
    mean_of "codegen.compile_calls" "count";
    mean_of "codegen.compile_mw" "Mw";
    mean_of "buildsys.digest_s" "s";
    mean_of "buildsys.cache_s" "s";
    mean_of "buildsys.schedule_s" "s";
    higher "buildsys.cache_hits" "count" (mean "buildsys.cache_hits");
    mean_of "buildsys.cache_misses" "count";
    higher "buildsys.cache_hit_ratio" "ratio"
      (hit_ratio "buildsys.cache_hits" "buildsys.cache_misses");
    mean_of "linker.link_s" "s";
    mean_of "linker.link_calls" "count";
    mean_of "linker.link_mw" "Mw";
    mean_of "linker.relax_iters" "count";
    mean_of "linker.input_sections" "count";
    mean_of "exec.image_build_s" "s";
    mean_of "exec.interp_s" "s";
    mean_of "exec.blocks_executed" "count";
    mean_of "perfmon.lbr_s" "s";
    mean_of "perfmon.lbr_records" "count";
    mean_of "wpa.analyze_s" "s";
    mean_of "wpa.hot_funcs" "count";
    higher "wpa.layout_cache_hits" "count" (mean "wpa.layout_cache_hits");
    mean_of "wpa.layout_cache_misses" "count";
    higher "wpa.layout_cache_hit_ratio" "ratio"
      (hit_ratio "wpa.layout_cache_hits" "wpa.layout_cache_misses");
    mean_of "uarch.consume_s" "s";
    mean_of "uarch.instructions" "count";
    mean_of "pool.batches" "count";
    mean_of "pool.steals" "count";
    mean_of "pool.max_worker_share" "ratio";
    mean_of "gc.minor_collections" "count";
    mean_of "gc.major_collections" "count";
    mean_of "gc.heap_growth_mb" "MiB";
    higher "trace.closure_pct" "%" (100.0 *. ratio "trace.layer_s" "trace.wall_s");
    lower "trace.overhead_pct" "%" overhead;
  ]

(* ---- trace output ----------------------------------------------- *)

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one process
   lane per program; spans of one op share its [op] argument. *)
let write_trace file children =
  let event c (s : Spans.span) =
    Obs.Json.Obj
      [
        ("name", String (s.layer ^ "." ^ s.name));
        ("cat", String s.layer);
        ("ph", String "X");
        ("ts", Float (s.start *. 1e6));
        ("dur", Float (s.dur *. 1e6));
        ("pid", Int c.k);
        ("tid", Int 1);
        ( "args",
          Obj
            [
              ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op); ("calls", Int s.calls);
              ("words", Float s.words);
            ] );
      ]
  in
  let events = List.concat_map (fun c -> List.map (event c) c.spans) children in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Jsonl.to_string (Obj [ ("traceEvents", List events) ]));
      output_char oc '\n')

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- a run ------------------------------------------------------ *)

let run (w : Family.workload) ~seed ~seconds ~trace =
  let start = Obs.Hostclock.now () in
  (* Each program's untraced child and, under --trace 1, its traced one. *)
  let rec loop k acc =
    if k > 0 && Obs.Hostclock.now () -. start >= seconds then List.rev acc
    else
      let untraced = run_scaled_child w ~seed ~k ~traced:false in
      let traced = if trace then [ run_scaled_child w ~seed ~k ~traced:true ] else [] in
      loop (k + 1) ((untraced, traced) :: acc)
  in
  let programs = loop 0 [] in
  let ops = Family.ops_per_program w.kind in
  let all = List.concat_map (fun (u, t) -> u :: t) programs in
  let children = List.filter_map Fun.id all in
  let untraced = List.filter (fun c -> not c.traced) children in
  let attempted = ops * List.length all in
  let failed =
    (ops * (List.length all - List.length children))
    + List.fold_left (fun acc c -> acc + failed_ops w ~seed c) 0 children
    + reference_check w ~seed untraced
  in
  let metrics =
    if trace then
      per_layer
        (List.filter_map
           (function Some u, [ Some t ] -> Some (u, t) | _ -> None)
           programs)
    else end_to_end untraced
  in
  Printf.printf "# %s seed=%d: %d programs, %d ops in %.1fs, %d failed\n" w.name seed
    (List.length programs) attempted
    (Obs.Hostclock.now () -. start)
    failed;
  (if not trace then
     let ms = List.concat_map op_ms untraced in
     let n_ops = List.length ms in
     let raw_ms = List.concat_map (fun c -> List.map (fun s -> s *. 1000.0) c.op_s) untraced in
     Printf.printf
       "# op latency at nominal host speed: p50 %.2f ms%s%s (n=%d); as timed: p50 %.2f ms, \
        reference kernel at x%.3f its nominal time\n"
       (Stats.median ms)
       (if n_ops < 2 then ""
        else
          let q1, _, q3 = Stats.quartiles ms in
          Printf.sprintf " [Q1 %.2f, Q3 %.2f]" q1 q3)
       (match Stats.tail_level n_ops with
       | Some p when p > 50.0 -> Printf.sprintf ", p%g %.2f ms" p (Stats.percentile p ms)
       | Some _ | None -> ", too few ops for a tail")
       n_ops (Stats.median raw_ms)
       (Stats.median (List.map (fun c -> 1.0 /. c.op_scale) untraced)));
  if trace then begin
    let dir = Filename.concat "relinkbench" "out" in
    let file = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed) in
    match mkdir_p dir; write_trace file (List.filter (fun c -> c.traced) children) with
    | () -> Printf.printf "# trace: %s\n" file
    | exception Sys_error e -> Printf.eprintf "trace not written: %s\n" e
  end;
  List.iter (fun m -> print_endline (Jsonl.metric_line ~workload:w.name m)) metrics;
  print_endline (Jsonl.summary_line ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

(* ---- goldens ---------------------------------------------------- *)

let write_golden file =
  let entries (w : Family.workload) =
    let f = Family.family w.kind in
    let seed = Family.default_seed f in
    ( f,
      seed,
      List.init (Family.cycle f) (fun k ->
          match run_child w ~seed ~k ~traced:false with
          | Some c when c.errors = [] -> { Golden.digest = c.digest; counters = c.counters }
          | Some _ | None -> failwith (Printf.sprintf "%s program %d failed its checks" w.name k)) )
  in
  let families =
    List.map (fun name -> entries (Option.get (Family.find name))) [ "cold-clang"; "simulate-mcf" ]
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Golden.to_text families))

(* ---- command line ----------------------------------------------- *)

let int_arg flag s =
  match int_of_string_opt s with
  | Some n -> n
  | None ->
    Printf.eprintf "%s: integer expected, got %S\n" flag s;
    usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--child"; name; seed; k; traced ] ->
    let w = match Family.find name with Some w -> w | None -> usage () in
    print_endline
      (Jsonl.to_string
         (Child.run w ~seed:(int_arg "seed" seed) ~k:(int_arg "k" k) ~traced:(traced = "1")))
  | [ "--write-golden"; file ] -> write_golden file
  | args ->
    let workload = ref None and seed = ref None and seconds = ref 28.0 and trace = ref false in
    let rec go = function
      | [] -> ()
      | "--workload" :: name :: rest ->
        (match Family.find name with
        | Some w -> workload := Some w
        | None ->
          Printf.eprintf "unknown workload %S; known: %s\n" name
            (String.concat " " (List.map (fun (w : Family.workload) -> w.name) Family.workloads));
          exit 2);
        go rest
      | "--seed" :: n :: rest ->
        seed := Some (int_arg "--seed" n);
        go rest
      | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        go rest
      | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
      | _ -> usage ()
    in
    go args;
    let w = match !workload with Some w -> w | None -> usage () in
    let seed =
      match !seed with Some s -> s | None -> Family.default_seed (Family.family w.kind)
    in
    run w ~seed ~seconds:!seconds ~trace:!trace
