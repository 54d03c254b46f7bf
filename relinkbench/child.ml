(* One program in its own process: set it up, run the workload's ops
   on it, check the outputs, and print one JSON line. A fresh process
   per program keeps Buildsys.Driver's process-wide memos (function and
   object digests) from carrying one relink's work into the next, and
   gives each program its own peak RSS. *)

let now = Obs.Hostclock.now

(* Words allocated by every domain so far. A minor collection first
   flushes each domain's counters, which Gc.quick_stat otherwise only
   samples at the next one. Called outside timed regions only. *)
let total_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
        | None -> failwith "VmHWM missing from /proc/self/status"
      in
      go ())

let counters_json (c : Uarch.Core.counters) =
  Obs.Json.Obj
    (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (Uarch.Core.counters_assoc c)
    @ [ ("cycles", Obs.Json.Float c.cycles) ])

(* The layout-independent part of a run's execution statistics: the
   engine executes the same logical trace under any layout of one
   program, so an optimized image must agree with the metadata image
   it was derived from. *)
let logical (s : Exec.Interp.stats) =
  [ s.blocks_executed; s.calls; s.returns; s.indirect_jumps; s.dloads; s.requests_completed ]

let image_build program binary =
  Spans.span ~layer:"exec" ~name:"image_build" (fun () -> Exec.Image.build program binary)

(* One batch of [requests] through the engine, drained into a fresh
   micro-architecture model. *)
let batch ~ctx ~core_config image ~requests =
  let core = Spans.span ~layer:"uarch" ~name:"create" (fun () -> Uarch.Core.create core_config) in
  let stats =
    Spans.span ~layer:"exec" ~name:"interp" (fun () ->
        Spans.drained ~layer:"uarch" ~name:"consume" (Uarch.Core.consume core) (fun drain ->
            Exec.Interp.run_tape ~ctx image { Exec.Interp.default_config with requests } ~drain))
  in
  let c = Uarch.Core.counters core in
  Spans.count "exec.blocks_executed" (float_of_int stats.blocks_executed);
  Spans.count "uarch.instructions" (float_of_int c.instructions);
  (stats, c)

(* Requests per simulated batch: enough for about
   [Family.batch_instructions] simulated instructions, from a
   calibration batch of [Family.calibration_requests]. *)
let batch_requests ~ctx ~core_config image =
  let _, c = batch ~ctx ~core_config image ~requests:Family.calibration_requests in
  max 1
    (Family.batch_instructions * Family.calibration_requests / max 1 c.Uarch.Core.instructions)

(* The engine run over the metadata image that the optimized image's
   logical trace is checked against. *)
let reference_run ~ctx program binary ~requests =
  let image = image_build program binary in
  Spans.span ~layer:"exec" ~name:"interp" (fun () ->
      Exec.Interp.run ~ctx image { Exec.Interp.default_config with requests } Exec.Event.null)

(* Per-program layer figures from the recorded spans and counts; the
   parent turns sums into ratios. *)
let layer_figures pool ~heap_growth_words =
  let selfs = Spans.self_times !Spans.recorded in
  let sum f = List.fold_left (fun acc (s, self) -> acc +. f s self) 0.0 selfs in
  let self_s layer name =
    sum (fun s self -> if s.Spans.layer = layer && s.name = name then self else 0.0)
  in
  let mw layer name =
    sum (fun s _ -> if s.Spans.layer = layer && s.name = name then s.words /. 1e6 else 0.0)
  in
  let count name = Option.value ~default:0.0 (Hashtbl.find_opt Spans.counts name) in
  let gc = Gc.quick_stat () in
  let pool_stats = Support.Pool.stats pool in
  [
    ("progen.generate_s", self_s "progen" "generate");
    ("codegen.inline_s", self_s "codegen" "inline");
    ("codegen.compile_s", self_s "codegen" "compile");
    ("codegen.compile_calls", count "codegen.compile_calls");
    ("codegen.compile_mw", mw "codegen" "compile");
    ("buildsys.digest_s", self_s "buildsys" "digest");
    ("buildsys.cache_s", self_s "buildsys" "cache");
    ("buildsys.schedule_s", self_s "buildsys" "schedule");
    ("buildsys.cache_hits", count "buildsys.cache_hits");
    ("buildsys.cache_misses", count "buildsys.cache_misses");
    ("linker.link_s", self_s "linker" "link");
    ("linker.link_calls", count "linker.link_calls");
    ("linker.link_mw", mw "linker" "link");
    ("linker.relax_iters", count "linker.relax_iters");
    ("linker.input_sections", count "linker.input_sections");
    ("exec.image_build_s", self_s "exec" "image_build");
    ("exec.interp_s", self_s "exec" "interp");
    ("exec.blocks_executed", count "exec.blocks_executed");
    ("perfmon.lbr_s", self_s "perfmon" "lbr");
    ("perfmon.lbr_records", count "perfmon.lbr_records");
    ("wpa.analyze_s", self_s "wpa" "analyze");
    ("wpa.hot_funcs", count "wpa.hot_funcs");
    ("wpa.layout_cache_hits", count "wpa.layout_cache_hits");
    ("wpa.layout_cache_misses", count "wpa.layout_cache_misses");
    ("uarch.consume_s", self_s "uarch" "consume");
    ("uarch.instructions", count "uarch.instructions");
    ("pool.batches", float_of_int pool_stats.batches);
    ("pool.steals", float_of_int pool_stats.steals);
    ( "pool.max_worker_share",
      let tasks = pool_stats.tasks_per_worker in
      let total = Array.fold_left ( + ) 0 tasks in
      if total = 0 then 0.0
      else float_of_int (Array.fold_left max 0 tasks) /. float_of_int total );
    ("gc.minor_collections", float_of_int gc.minor_collections);
    ("gc.major_collections", float_of_int gc.major_collections);
    ( "gc.heap_growth_mb",
      heap_growth_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
    ("trace.layer_s", sum (fun s self -> if s.Spans.layer <> "bench" then self else 0.0));
    ("trace.wall_s", sum (fun s _ -> if s.Spans.parent = 0 then s.dur else 0.0));
  ]

let run (w : Family.workload) ~seed ~k ~traced =
  if traced then Spans.start ();
  let f = Family.family w.kind in
  let spec = Family.spec f ~seed k in
  let config = Family.pipeline_config spec in
  let core_config = Family.core_config spec in
  let name = spec.name in
  let ops = Family.ops_per_program w.kind in
  let op_s = Array.make ops 0.0 and op_mw = Array.make ops 0.0 in
  let op_ok = Array.make ops true in
  let errors = ref [] in
  let fail_op i fmt =
    Printf.ksprintf
      (fun s ->
        op_ok.(i) <- false;
        errors := Printf.sprintf "op %d: %s" i s :: !errors)
      fmt
  in
  Support.Pool.with_pool ~jobs:w.jobs @@ fun pool ->
  let ctx = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~pool () in
  let env = Buildsys.Driver.make_env ~ctx () in
  let relink program =
    if traced then Compose.relink ~config env ~program ~name
    else Compose.pipeline ~config env ~program ~name
  in
  (* Allocation is read around untraced ops only: traced children feed
     the per-layer figures, where the forced minor collections would
     be unattributed time. *)
  let timed i f =
    Spans.current_op := i;
    let w0 = if traced then 0.0 else total_words () in
    let t0 = now () in
    let v = Spans.span ~layer:"bench" ~name:"op" f in
    op_s.(i) <- now () -. t0;
    Spans.current_op := -2;
    if not traced then op_mw.(i) <- (total_words () -. w0) /. 1e6;
    v
  in
  let digest_of (r : Compose.relink) =
    Spans.span ~layer:"linker" ~name:"image_digest" (fun () ->
        Support.Digesting.to_hex (Linker.Binary.image_digest r.opt))
  in
  let setup_s, heap_growth_words, digest, counters =
    Spans.span ~layer:"bench" ~name:"program" @@ fun () ->
    let t0 = now () in
    let program =
      let p =
        Spans.span ~layer:"progen" ~name:"generate" (fun () -> Progen.Generate.program spec)
      in
      Spans.span ~layer:"codegen" ~name:"inline" (fun () -> Codegen.Inline.program p)
    in
    let setup =
      match w.kind with
      | Family.Cold -> `Cold
      | Warm -> `Warm (relink program)
      | Simulate ->
        let r = relink program in
        let image = image_build program r.opt in
        `Simulate (r, image, batch_requests ~ctx ~core_config image)
    in
    let setup_s = now () -. t0 in
    Spans.current_op := -2;
    let heap0 = (Gc.quick_stat ()).top_heap_words in
    (* [checked] is the relink whose output is checked, [batch0] the
       first simulated batch when the ops are batches. *)
    let checked, digest, batch0 =
      match setup with
      | `Cold ->
        let r = timed 0 (fun () -> relink program) in
        (r, digest_of r, None)
      | `Warm cold ->
        let cold_digest = digest_of cold in
        for i = 0 to ops - 1 do
          let r = timed i (fun () -> relink program) in
          let d = digest_of r in
          if d <> cold_digest then fail_op i "warm digest %s <> cold %s" d cold_digest;
          if r.obj_misses > 0 then fail_op i "%d objects compiled on a warm relink" r.obj_misses;
          if r.layout_misses > 0 then
            fail_op i "%d layouts computed on a warm relink" r.layout_misses
        done;
        (cold, cold_digest, None)
      | `Simulate (r, image, requests) ->
        let first = timed 0 (fun () -> batch ~ctx ~core_config image ~requests) in
        for i = 1 to ops - 1 do
          let _, counters = timed i (fun () -> batch ~ctx ~core_config image ~requests) in
          if counters <> snd first then fail_op i "batch counters differ from batch 0"
        done;
        (r, digest_of r, Some (first, requests))
    in
    let heap_growth_words = float_of_int ((Gc.quick_stat ()).top_heap_words - heap0) in
    (* The output check: the optimized image runs the metadata image's
       logical trace, and its simulated counters go to the golden
       compare. *)
    let (stats, counters), requests =
      match batch0 with
      | Some b -> b
      | None ->
        let image = image_build program checked.opt in
        (batch ~ctx ~core_config image ~requests:Family.check_requests, Family.check_requests)
    in
    let reference = reference_run ~ctx program checked.meta ~requests in
    if logical stats <> logical reference then
      for i = 0 to ops - 1 do
        fail_op i "optimized image leaves the metadata image's logical trace"
      done;
    (setup_s, heap_growth_words, digest, counters_json counters)
  in
  let layers =
    if traced then
      [
        ( "layers",
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> (k, Obs.Json.Float v))
               (layer_figures pool ~heap_growth_words)) );
        ("spans", Obs.Json.List (List.rev_map Spans.to_json !Spans.recorded));
      ]
    else []
  in
  let floats a = Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Float x) a)) in
  Obs.Json.Obj
    ([
       ("program", Obs.Json.Int k);
       ("setup_s", Float setup_s);
       ("op_s", floats op_s);
       ("op_mw", floats op_mw);
       ("op_ok", List (Array.to_list (Array.map (fun b -> Obs.Json.Bool b) op_ok)));
       ("errors", List (List.rev_map (fun s -> Obs.Json.String s) !errors));
       ("digest", String digest);
       ("counters", counters);
       ("rss_mib", Float (peak_rss_mib ()));
     ]
    @ layers)
