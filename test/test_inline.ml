open Testutil

(* A chain of [n] blocks, the last one returning. *)
let chain_func ~name n =
  Ir.Func.make ~name
    (Array.init n (fun id ->
         compute_block ~id ~bytes:4 ~term:(if id = n - 1 then Ir.Term.Return else Ir.Term.Jump (id + 1))))

(* A hot call site in main's entry; callee is a small diamond (4
   blocks), a one-block function or a chain of [callee_blocks]. *)
let make_program ?(callee_blocks = 4) () =
  let callee =
    match callee_blocks with
    | 1 ->
      Ir.Func.make ~name:"callee"
        [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 9 ] ~term:Ir.Term.Return () |]
    | 4 -> diamond_func ~name:"callee" ()
    | n -> chain_func ~name:"callee" n
  in
  let main =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0
          ~body:[ Ir.Inst.Compute 6; Ir.Inst.DirectCall "callee"; Ir.Inst.Compute 4 ]
          ~term:(Ir.Term.Jump 1) ();
        Ir.Block.make ~id:1 ~body:[ Ir.Inst.Compute 5 ] ~term:Ir.Term.Return ();
      |]
  in
  Ir.Program.make ~name:"p" ~main:"main"
    [ Ir.Cunit.make ~name:"um" [ main ]; Ir.Cunit.make ~name:"uc" [ callee ] ]

(* [main] after inlining the whole program, and how many of its call
   sites were inlined (every call in these programs is to "callee"). *)
let inlined_main program =
  let main p = Option.get (Ir.Program.find_func p "main") in
  let main' = main (Codegen.Inline.program program) in
  let calls f = List.length (List.filter (fun (c, _) -> c = "callee") (Ir.Func.calls f)) in
  (main', calls (main program) - calls main')

let test_inline_splices_callee () =
  let program = make_program () in
  let main', count = inlined_main program in
  check ti "one site inlined" 1 count;
  (* main had 2 blocks; callee has 4; plus the tail: 2 + 4 + 1 = 7. *)
  check ti "block count" 7 (Ir.Func.num_blocks main');
  (* The call is gone. *)
  check tb "no call left" true
    (not (List.exists (fun (c, _) -> c = "callee") (Ir.Func.calls main')))

let test_inline_wires_control_flow () =
  let program = make_program () in
  let main', _ = inlined_main program in
  (* Head jumps into the cloned entry (id 2 = original 2 blocks). *)
  (match (Ir.Func.block main' 0).term with
  | Ir.Term.Jump 2 -> ()
  | t -> Alcotest.failf "head terminator: %s" (Format.asprintf "%a" Ir.Term.pp t));
  (* Cloned returns jump to the tail (id 6). *)
  let tail_id = 6 in
  let return_target_ok = ref true in
  Array.iter
    (fun (b : Ir.Block.t) ->
      if b.id >= 2 && b.id < 6 then
        match b.term with
        | Ir.Term.Return -> return_target_ok := false
        | _ -> ())
    main'.blocks;
  check tb "no returns in cloned region" true !return_target_ok;
  (* The tail kept the original terminator (Jump 1). *)
  match (Ir.Func.block main' tail_id).term with
  | Ir.Term.Jump 1 -> ()
  | t -> Alcotest.failf "tail terminator: %s" (Format.asprintf "%a" Ir.Term.pp t)

let test_inline_validates () =
  (* The spliced function passes Func.make validation implicitly; also
     the whole program revalidates. *)
  let program = make_program () in
  let program' = Codegen.Inline.program program in
  check tb "main still resolvable" true (Option.is_some (Ir.Program.find_func program' "main"));
  check ti "blocks program-wide" (Ir.Program.num_blocks program + 5) (Ir.Program.num_blocks program')

(* Callees of up to 4 blocks are inlined, and no bigger. *)
let test_inline_respects_size_cap () =
  let _, count = inlined_main (make_program ~callee_blocks:5 ()) in
  check ti "5-block callee not inlined" 0 count;
  let _, count = inlined_main (make_program ~callee_blocks:4 ()) in
  check ti "4-block callee inlined" 1 count

let test_inline_respects_hot_gate () =
  (* Call site in a block the PGO estimate says is cold: not inlined. *)
  let callee =
    Ir.Func.make ~name:"callee"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 9 ] ~term:Ir.Term.Return () |]
  in
  let main =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0 ~body:[]
          ~term:(branch ~taken:1 ~fallthrough:2 ~prob:0.01 ~pgo_prob:0.01 ())
          ();
        Ir.Block.make ~id:1 ~body:[ Ir.Inst.DirectCall "callee" ] ~term:(Ir.Term.Jump 2) ();
        Ir.Block.make ~id:2 ~body:[] ~term:Ir.Term.Return ();
      |]
  in
  let program =
    Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ main; callee ] ]
  in
  let main', count = inlined_main program in
  check ti "cold site not inlined" 0 count;
  check ti "unchanged" 3 (Ir.Func.num_blocks main')

let test_inline_skips_inline_asm_callee () =
  let program = make_program ~callee_blocks:1 () in
  let callee = Option.get (Ir.Program.find_func program "callee") in
  let asm_callee = { callee with Ir.Func.attrs = { callee.attrs with has_inline_asm = true } } in
  let program =
    Ir.Program.make ~name:"p" ~main:"main"
      [
        Ir.Cunit.make ~name:"um" [ Option.get (Ir.Program.find_func program "main") ];
        Ir.Cunit.make ~name:"uc" [ asm_callee ];
      ]
  in
  let _, count = inlined_main program in
  check ti "asm callee not inlined" 0 count

let test_inline_budget () =
  (* main calls callee in several hot blocks; the budget caps growth. *)
  let callee =
    Ir.Func.make ~name:"callee"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 9 ] ~term:Ir.Term.Return () |]
  in
  let call_block id next =
    Ir.Block.make ~id ~body:[ Ir.Inst.DirectCall "callee" ]
      ~term:(if next < 0 then Ir.Term.Return else Ir.Term.Jump next)
      ()
  in
  let main =
    Ir.Func.make ~name:"main"
      [|
        call_block 0 1; call_block 1 2; call_block 2 3; call_block 3 4; call_block 4 5;
        call_block 5 (-1);
      |]
  in
  let program =
    Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ main; callee ] ]
  in
  let _, count = inlined_main program in
  check ti "a caller stops after 4 inlines" 4 count

let test_inline_preserves_true_probs_dilutes_pgo () =
  let program = make_program () in
  let main', _ = inlined_main program in
  (* The cloned diamond branch is at id 2 (cloned callee entry). *)
  match (Ir.Func.block main' 2).term with
  | Ir.Term.Branch { prob; pgo_prob; _ } ->
    (* True probability is exactly the callee's 0.3; the PGO estimate
       moved, by main's first draw of the noise stream. *)
    check tf "true prob preserved" 0.3 prob;
    check ts "cloned estimate moved" "0.44245993719724852" (Printf.sprintf "%.17g" pgo_prob)
  | t -> Alcotest.failf "expected branch, got %s" (Format.asprintf "%a" Ir.Term.pp t)

let test_inline_program_runs () =
  (* The inlined program executes and terminates like the original. *)
  let _, program = medium_program () in
  let inlined = Codegen.Inline.program program in
  check tb "inliner found sites" true (Ir.Program.num_blocks inlined > Ir.Program.num_blocks program);
  let _, { Linker.Link.binary; _ } = compile_and_link ~name:"inl" inlined in
  let image = Exec.Image.build inlined binary in
  let stats =
    Exec.Interp.run ~ctx:(ctx ())
      image { Exec.Interp.default_config with requests = 10 } Exec.Event.null
  in
  check ti "requests complete" 10 stats.requests_completed;
  check tb "work happened" true (stats.blocks_executed > 0)

let suite =
  [
    Alcotest.test_case "splices callee" `Quick test_inline_splices_callee;
    Alcotest.test_case "wires control flow" `Quick test_inline_wires_control_flow;
    Alcotest.test_case "program revalidates" `Quick test_inline_validates;
    Alcotest.test_case "size cap" `Quick test_inline_respects_size_cap;
    Alcotest.test_case "hot gate" `Quick test_inline_respects_hot_gate;
    Alcotest.test_case "asm callee skipped" `Quick test_inline_skips_inline_asm_callee;
    Alcotest.test_case "growth budget" `Quick test_inline_budget;
    Alcotest.test_case "true probs preserved" `Quick test_inline_preserves_true_probs_dilutes_pgo;
    Alcotest.test_case "inlined program runs" `Quick test_inline_program_runs;
  ]
