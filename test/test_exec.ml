open Testutil

let build_image ?codegen ?link program =
  let _, { Linker.Link.binary; _ } = compile_and_link ?codegen ?link program in
  (binary, Exec.Image.build program binary)

let run ?(requests = 20) image drain =
  Exec.Interp.run ~ctx:(ctx ()) image { Exec.Interp.default_config with requests } drain

(* [f i] for every event [i] of [tag] on a drained tape. *)
let iter_tag tag f (t : Exec.Event.tape) =
  for i = 0 to t.len - 1 do
    if Bytes.get t.tags i = tag then f i
  done

let test_image_block_fidelity () =
  let program = call_program () in
  let binary, image = build_image program in
  (* Functions are indexed in program order. *)
  let next = ref 0 in
  Ir.Program.iter_funcs program (fun f ->
      let fi = !next in
      incr next;
      for b = 0 to Ir.Func.num_blocks f - 1 do
        let xb = Exec.Image.block image ~func_idx:fi ~block:b in
        let info = block_info_exn binary ~func:f.name ~block:b in
        check ti "addr" info.addr xb.addr;
        check ti "size" info.size xb.size
      done)

let test_image_rejects_mismatched_binary () =
  let p1 = call_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link p1 in
  let p2 =
    Ir.Program.make ~name:"other" ~main:"solo"
      [ Ir.Cunit.make ~name:"u" [ diamond_func ~name:"solo" () ] ]
  in
  try
    ignore (Exec.Image.build p2 binary);
    Alcotest.fail "expected mismatch failure"
  with Invalid_argument _ -> ()

let test_run_counts () =
  let program = call_program () in
  let _, image = build_image program in
  let stats = run ~requests:10 image Exec.Event.null in
  check ti "all requests" 10 stats.requests_completed;
  check tb "blocks executed" true (stats.blocks_executed > 10);
  check tb "calls happened" true (stats.calls > 0);
  check ti "calls return" stats.calls stats.returns;
  check tb "bytes fetched" true (stats.bytes_fetched > 0)

let test_determinism () =
  let _, program = medium_program () in
  let _, image = build_image program in
  let s1 = run image Exec.Event.null in
  let s2 = run image Exec.Event.null in
  check tb "identical reruns" true (s1 = s2)

(* The load-bearing property: the logical trace is identical across
   layouts of the same program; only physical (address-derived) numbers
   may change. *)
let test_layout_invariance () =
  let _, program = medium_program () in
  let _, image_base = build_image program in
  (* A deliberately different layout: reverse source order per function
     via plans, plus no relaxation. *)
  let plans =
    Ir.Program.fold_funcs program [] (fun acc f ->
        if Ir.Func.num_blocks f < 2 then acc
        else begin
          let ids = List.init (Ir.Func.num_blocks f) Fun.id in
          let rev = 0 :: List.rev (List.tl ids) in
          { Codegen.Directive.func = f.name;
            clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = rev } ] }
          :: acc
        end)
  in
  let _, image_alt =
    build_image ~codegen:{ Codegen.default_options with plans } program
  in
  let s1 = run image_base Exec.Event.null in
  let s2 = run image_alt Exec.Event.null in
  check ti "same blocks executed" s1.blocks_executed s2.blocks_executed;
  check ti "same calls" s1.calls s2.calls;
  check ti "same conditional branches" s1.cond_branches s2.cond_branches;
  check ti "same indirect jumps" s1.indirect_jumps s2.indirect_jumps;
  (* Physical outcomes (taken counts, fetched bytes) are layout
     dependent and expected to differ. *)
  check tb "layouts actually differ" true
    (s1.cond_taken <> s2.cond_taken || s1.bytes_fetched <> s2.bytes_fetched)

let test_branch_bias_observed () =
  (* A 0.75 back-edge must iterate the loop about 4x per entry. *)
  let f = loop_func ~name:"main" () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, image = build_image program in
  let stats = run ~requests:500 image Exec.Event.null in
  let per_request = float_of_int stats.blocks_executed /. 500.0 in
  (* blocks per request = 1 (entry) + ~4 (body) + 1 (exit). *)
  check tb "loop iterates ~4x" true (per_request > 4.5 && per_request < 7.5)

let test_fetch_events_cover_blocks () =
  let program = call_program () in
  let binary, image = build_image program in
  let fetched = ref 0 in
  let drain (t : Exec.Event.tape) =
    iter_tag Exec.Event.tag_fetch
      (fun i ->
        let addr = t.a.(i) and len = t.b.(i) in
        check tb "fetch in text" true (addr >= binary.text_start && addr + len <= binary.text_end);
        fetched := !fetched + len)
      t
  in
  let stats = run ~requests:5 image drain in
  check ti "drain sees all fetched bytes" stats.bytes_fetched !fetched

let test_branch_events_consistent () =
  let program = call_program () in
  let binary, image = build_image program in
  let bad = ref 0 in
  let cond = Exec.Event.kind_to_int Exec.Event.Cond
  and ret = Exec.Event.kind_to_int Exec.Event.Ret in
  let drain (t : Exec.Event.tape) =
    iter_tag Exec.Event.tag_branch
      (fun i ->
        let src = t.a.(i) and dst = t.b.(i) in
        let kind = t.c.(i) lsr 1 and taken = t.c.(i) land 1 = 1 in
        (* A non-taken conditional continues at the next address. *)
        if kind = cond && (not taken) && src <> dst then incr bad;
        (* Root returns leave the text segment (the exit stub). *)
        let exit_stub = kind = ret && dst < binary.text_start in
        if (not exit_stub) && (dst < binary.text_start || dst > binary.text_end) then incr bad)
      t
  in
  ignore (run ~requests:10 image drain);
  check ti "all branch events well-formed" 0 !bad

let test_call_depth_elision () =
  (* main -> f -> g chain with depth limit 1: g never runs. *)
  let g = diamond_func ~name:"g" () in
  let f =
    Ir.Func.make ~name:"f"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "g" ] ~term:Ir.Term.Return () |]
  in
  let main =
    Ir.Func.make ~name:"main"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "f" ] ~term:Ir.Term.Return () |]
  in
  let program =
    Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ main; f; g ] ]
  in
  let _, image = build_image program in
  let stats =
    Exec.Interp.run ~ctx:(ctx ()) image
      { Exec.Interp.default_config with requests = 3; call_depth_limit = 1 }
      Exec.Event.null
  in
  (* Each request: call main->f happens (depth 0 < 1); f->g elided. *)
  check ti "one call per request" 3 stats.calls

let test_step_budget () =
  (* An infinite loop must be stopped by the per-request budget. *)
  let f =
    Ir.Func.make ~name:"main"
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 1);
        compute_block ~id:1 ~bytes:4 ~term:(Ir.Term.Jump 1);
      |]
  in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, image = build_image program in
  let stats =
    Exec.Interp.run ~ctx:(ctx ()) image
      { Exec.Interp.default_config with requests = 2; max_steps_per_request = 100 }
      Exec.Event.null
  in
  check ti "budget caps execution" 202 stats.blocks_executed;
  check ti "requests still complete" 2 stats.requests_completed

let test_inline_data_not_fetched () =
  let f =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0
          ~body:[ Ir.Inst.Compute 10; Ir.Inst.JumpTableData 64; Ir.Inst.Compute 6 ]
          ~term:Ir.Term.Return ();
      |]
  in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, image = build_image program in
  let stats = run ~requests:1 image Exec.Event.null in
  (* 10 + 6 + ret(1) executed; the 64 data bytes are skipped. *)
  check ti "data bytes skipped" 17 stats.bytes_fetched

(* Steady-state allocation law (ISSUE 9): once the event tape and the
   LBR tables have grown to capacity, a warm profiled run allocates a
   fixed per-run overhead (the stats record, the drain closure) and
   nothing per event. The per-request bound guards the flat fast path
   against reintroducing closures or tuple keys on the event path,
   which immediately costs tens of words per request. *)
let test_steady_state_allocation () =
  let _, program = medium_program () in
  let _, image = build_image program in
  let profile = Perfmon.Lbr.create_profile () in
  let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config profile in
  let reps = 5 in
  (* Words allocated by [reps] warm runs at [requests] requests each.
     Each run pays a fixed setup cost (the event tape, the visits
     array, the interpreter state), so the per-request marginal cost is
     the slope between two request counts, not a single quotient. *)
  let ctx = ctx () in
  let measure requests =
    let config = { Exec.Interp.default_config with requests } in
    let run () =
      ignore
        (Exec.Interp.run ~ctx image config (Perfmon.Lbr.consume c)
          : Exec.Interp.stats)
    in
    (* Warm-up: grow the tape and the profile tables to steady capacity. *)
    for _ = 1 to 3 do
      run ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      run ()
    done;
    Gc.minor_words () -. w0
  in
  let lo = 20 and hi = 120 in
  let slope = (measure hi -. measure lo) /. float_of_int (reps * (hi - lo)) in
  (* Zero today. One stray box or closure on the event path costs
     hundreds of words per request, so 8.0 is a tight tripwire that
     still tolerates incidental runtime noise. *)
  if slope > 8.0 then
    Alcotest.failf "steady-state allocation too high: %.2f words/request" slope

(* --- Functions compile on first entry ------------------------------ *)

let relink0_image =
  lazy
    (let program = relink_family_program 0 in
     let _, { Linker.Link.binary; _ } = compile_and_link program in
     (program, binary))

(* Every event on a drained tape, appended to [b]. *)
let record_events b (t : Exec.Event.tape) =
  for k = 0 to t.len - 1 do
    Printf.bprintf b "%c %d %d %d\n" (Bytes.get t.tags k) t.a.(k) t.b.(k) t.c.(k)
  done

(* Every event of a run, in emission order, as one digest. *)
let run_digest image =
  let b = Buffer.create 65536 in
  let stats =
    Exec.Interp.run ~ctx:(ctx ()) image
      { Exec.Interp.default_config with requests = Progen.Suite.clang.requests / 16 }
      (record_events b)
  in
  (stats, Digest.to_hex (Digest.string (Buffer.contents b)))

(* Entering every function, in program order, numbers the blocks
   1..num_blocks in that order: the uids the stateless coins read do
   not depend on which functions a run entered first. *)
let force_all program image =
  let uids = ref [] in
  let next = ref 0 in
  Ir.Program.iter_funcs program (fun f ->
      let func_idx = !next in
      incr next;
      for block = 0 to Ir.Func.num_blocks f - 1 do
        uids := (Exec.Image.block image ~func_idx ~block).uid :: !uids
      done);
  List.rev !uids

let test_image_forced_uids () =
  let program, binary = Lazy.force relink0_image in
  let image = Exec.Image.build program binary in
  let n = Exec.Image.num_blocks image in
  check ti "every block numbered" (Ir.Program.fold_funcs program 0 (fun acc f -> acc + Ir.Func.num_blocks f)) n;
  check Alcotest.(list int) "uids in program order" (List.init n (fun i -> i + 1))
    (force_all program image)

let test_image_lazy_equals_forced () =
  let program, binary = Lazy.force relink0_image in
  let fresh = Exec.Image.build program binary in
  let forced = Exec.Image.build program binary in
  ignore (force_all program forced : int list);
  let fresh_stats, fresh_tape = run_digest fresh in
  let forced_stats, forced_tape = run_digest forced in
  check tb "same stats" true (fresh_stats = forced_stats);
  check ts "same event tape" forced_tape fresh_tape

(* Runs one after another on a domain share one tape: once a run has
   put the domain's spare tape back, the next allocates less than one
   tape (3 int arrays and a tag byte per event of capacity). *)
let test_run_reuses_tape () =
  let _, program = medium_program () in
  let _, image = build_image program in
  let ctx = ctx () in
  let run () =
    ignore
      (Exec.Interp.run ~ctx image { Exec.Interp.default_config with requests = 20 } ignore
        : Exec.Interp.stats)
  in
  run ();
  let words = allocated_words run in
  let tape_words = float_of_int ((3 * Exec.Event.tape_capacity) + (Exec.Event.tape_capacity / 8)) in
  if words >= tape_words then
    Alcotest.failf "a second run allocated %.0f words, a tape is %.0f" words tape_words

(* A run started from a drain (a nested run) writes its own tape: the
   outer drain, reading its tape after the nested run returned, and
   the nested drain each see what their run gives alone. *)
let test_nested_run () =
  let program, binary = Lazy.force relink0_image in
  let outer = Exec.Image.build program binary in
  let _, inner = build_image (call_program ()) in
  let config = { Exec.Interp.default_config with requests = 20 } in
  let alone image =
    let b = Buffer.create 65536 in
    ignore (Exec.Interp.run ~ctx:(ctx ()) image config (record_events b) : Exec.Interp.stats);
    Digest.string (Buffer.contents b)
  in
  let outer_alone = alone outer and inner_alone = alone inner in
  let ob = Buffer.create 65536 and ib = Buffer.create 4096 and flushes = ref 0 in
  let drain t =
    incr flushes;
    if !flushes = 1 then
      ignore (Exec.Interp.run ~ctx:(ctx ()) inner config (record_events ib) : Exec.Interp.stats);
    record_events ob t
  in
  ignore (Exec.Interp.run ~ctx:(ctx ()) outer config drain : Exec.Interp.stats);
  check tb "the outer run flushed more than once" true (!flushes > 1);
  check ts "outer stream" (Digest.to_hex outer_alone) (Digest.to_hex (Digest.string (Buffer.contents ob)));
  check ts "nested stream" (Digest.to_hex inner_alone) (Digest.to_hex (Digest.string (Buffer.contents ib)));
  check ts "a later run" (Digest.to_hex outer_alone) (Digest.to_hex (alone outer))

(* The last block of the last function: a profiling run never needs
   it compiled, but the check at build time still finds it missing. *)
let test_image_missing_block_raises_at_build () =
  let program, binary = Lazy.force relink0_image in
  let last = Ir.Program.fold_funcs program None (fun _ f -> Some f) |> Option.get in
  let block = Ir.Func.num_blocks last - 1 in
  let positions = Array.copy binary.positions in
  let f = Hashtbl.find binary.func_ids last.name in
  let pos = Array.copy positions.(f) in
  pos.(block) <- -1;
  positions.(f) <- pos;
  match Exec.Image.build program { binary with positions } with
  | _ -> Alcotest.fail "expected a missing-block failure"
  | exception Invalid_argument msg ->
    check ts "message" (Printf.sprintf "Image.build: block %s#%d not in binary" last.name block) msg

let suite =
  [
    Alcotest.test_case "image matches binary" `Quick test_image_block_fidelity;
    Alcotest.test_case "image rejects foreign binary" `Quick test_image_rejects_mismatched_binary;
    Alcotest.test_case "run counts" `Quick test_run_counts;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "layout invariance of logical trace" `Quick test_layout_invariance;
    Alcotest.test_case "branch bias drives loops" `Quick test_branch_bias_observed;
    Alcotest.test_case "fetch events cover blocks" `Quick test_fetch_events_cover_blocks;
    Alcotest.test_case "branch events consistent" `Quick test_branch_events_consistent;
    Alcotest.test_case "call depth elision" `Quick test_call_depth_elision;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "inline data not fetched" `Quick test_inline_data_not_fetched;
    Alcotest.test_case "steady-state allocation bounded" `Quick test_steady_state_allocation;
    Alcotest.test_case "forced image: uids in program order" `Quick test_image_forced_uids;
    Alcotest.test_case "fresh image runs as a forced one" `Quick test_image_lazy_equals_forced;
    Alcotest.test_case "missing block raises at build" `Quick test_image_missing_block_raises_at_build;
    Alcotest.test_case "a second run reuses the tape" `Quick test_run_reuses_tape;
    Alcotest.test_case "a nested run writes its own tape" `Quick test_nested_run;
  ]
