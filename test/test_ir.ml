open Testutil

let test_inst_sizes () =
  check ti "compute" 9 (Ir.Inst.byte_size (Ir.Inst.Compute 9));
  check ti "call" 5 (Ir.Inst.byte_size (Ir.Inst.DirectCall "f"));
  check ti "vcall" 3 (Ir.Inst.byte_size (Ir.Inst.VirtualCall { callees = [| ("f", 1.0) |] }));
  check ti "table" 32 (Ir.Inst.byte_size (Ir.Inst.JumpTableData 32))

let test_inst_callees () =
  check tb "direct" true (Ir.Inst.callees (Ir.Inst.DirectCall "f") = [ ("f", 1.0) ]);
  check ti "virtual count" 2
    (List.length (Ir.Inst.callees (Ir.Inst.VirtualCall { callees = [| ("a", 0.5); ("b", 0.5) |] })));
  check tb "compute none" true (Ir.Inst.callees (Ir.Inst.Compute 4) = [])

let test_term_successors () =
  check Alcotest.(list int) "branch" [ 3; 1 ]
    (Ir.Term.successors (branch ~taken:3 ~fallthrough:1 ~prob:0.5 ()));
  check Alcotest.(list int) "jump" [ 7 ] (Ir.Term.successors (Ir.Term.Jump 7));
  check Alcotest.(list int) "return" [] (Ir.Term.successors Ir.Term.Return);
  let sw = Ir.Term.Switch { table = [| 1; 2; 3 |]; probs = [| 0.2; 0.3; 0.5 |]; pgo_probs = [| 0.4; 0.3; 0.3 |] } in
  check Alcotest.(list int) "switch" [ 1; 2; 3 ] (Ir.Term.successors sw)

let test_term_probs () =
  let t = branch ~taken:1 ~fallthrough:2 ~prob:0.3 ~pgo_prob:0.9 () in
  check tb "true probs" true (Ir.Term.successor_probs t = [ (1, 0.3); (2, 0.7) ]);
  (match Ir.Term.successor_pgo_probs t with
  | [ (1, p1); (2, p2) ] ->
    check tf "pgo taken" 0.9 p1;
    check tb "pgo ft" true (abs_float (p2 -. 0.1) < 1e-9)
  | _ -> Alcotest.fail "bad pgo probs")

let test_term_map_blocks () =
  let t = branch ~taken:1 ~fallthrough:2 ~prob:0.5 () in
  check Alcotest.(list int) "mapped" [ 11; 12 ]
    (Ir.Term.successors (Ir.Term.map_blocks (fun b -> b + 10) t))

let test_func_validation () =
  (* Out of range target. *)
  let bad () =
    ignore
      (Ir.Func.make ~name:"bad"
         [| compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 5) |])
  in
  (try
     bad ();
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  (* Wrong id. *)
  (try
     ignore (Ir.Func.make ~name:"bad2" [| compute_block ~id:1 ~bytes:4 ~term:Ir.Term.Return |]);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  (* Empty. *)
  try
    ignore (Ir.Func.make ~name:"bad3" [||]);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let test_func_accessors () =
  let f = diamond_func () in
  check ti "blocks" 4 (Ir.Func.num_blocks f);
  check ti "entry id" 0 (Ir.Func.entry f).Ir.Block.id;
  check ti "code bytes" (10 + 12 + 14 + 6) (Ir.Func.code_bytes f)

let test_func_calls () =
  let p = call_program () in
  let main = Ir.Program.find_func_exn p "main" in
  check tb "calls callee" true (List.mem_assoc "callee" (Ir.Func.calls main))

let test_program_validation () =
  (* Duplicate function names. *)
  let f1 = diamond_func ~name:"dup" () and f2 = loop_func ~name:"dup" () in
  (try
     ignore
       (Ir.Program.make ~name:"p" ~main:"dup"
          [ Ir.Cunit.make ~name:"u1" [ f1 ]; Ir.Cunit.make ~name:"u2" [ f2 ] ]);
     Alcotest.fail "expected duplicate failure"
   with Invalid_argument _ -> ());
  (* Missing main. *)
  (try
     ignore (Ir.Program.make ~name:"p" ~main:"nope" [ Ir.Cunit.make ~name:"u" [ f1 ] ]);
     Alcotest.fail "expected missing-main failure"
   with Invalid_argument _ -> ());
  (* Undefined callee. *)
  let calls_ghost =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "ghost" ] ~term:Ir.Term.Return ();
      |]
  in
  try
    ignore (Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ calls_ghost ] ]);
    Alcotest.fail "expected undefined-callee failure"
  with Invalid_argument _ -> ()

let test_program_lookup () =
  let p = call_program () in
  check tb "find main" true (Option.is_some (Ir.Program.find_func p "main"));
  check tb "find nothing" true (Option.is_none (Ir.Program.find_func p "zzz"));
  check (Alcotest.option ts) "unit of callee" (Some "u_callee") (Ir.Program.unit_of_func p "callee");
  check ti "funcs" 2 (Ir.Program.num_funcs p);
  check ti "blocks" 6 (Ir.Program.num_blocks p)

let test_cfg_predecessors () =
  let f = diamond_func () in
  let preds = Ir.Cfg.predecessors f in
  check Alcotest.(list int) "entry preds" [] preds.(0);
  check Alcotest.(list int) "join preds" [ 1; 2 ] (List.sort compare preds.(3))

let test_cfg_rpo () =
  let f = diamond_func () in
  let rpo = Ir.Cfg.reverse_postorder f in
  check ti "covers all" 4 (List.length rpo);
  check ti "entry first" 0 (List.hd rpo);
  (* 3 must come after both 1 and 2. *)
  let pos b = Option.get (List.find_index (fun x -> x = b) rpo) in
  check tb "join last" true (pos 3 > pos 1 && pos 3 > pos 2)

let test_cfg_unreachable () =
  let f =
    Ir.Func.make ~name:"unreach"
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 2);
        compute_block ~id:1 ~bytes:4 ~term:Ir.Term.Return;
        compute_block ~id:2 ~bytes:4 ~term:Ir.Term.Return;
      |]
  in
  let reach = Ir.Cfg.reachable f in
  check tb "1 unreachable" false reach.(1);
  check tb "2 reachable" true reach.(2);
  (* RPO still lists every block. *)
  check ti "rpo complete" 3 (List.length (Ir.Cfg.reverse_postorder f))

let test_cfg_frequencies_diamond () =
  let f = diamond_func ~prob:0.3 () in
  let freq = Ir.Cfg.estimate_frequencies ~use_pgo:false f in
  check tb "entry = 1" true (abs_float (freq.(0) -. 1.0) < 1e-6);
  check tb "taken branch freq" true (abs_float (freq.(1) -. 0.3) < 1e-3);
  check tb "ft freq" true (abs_float (freq.(2) -. 0.7) < 1e-3);
  check tb "join = 1" true (abs_float (freq.(3) -. 1.0) < 1e-3)

let test_cfg_frequencies_loop () =
  let f = loop_func () in
  let freq = Ir.Cfg.estimate_frequencies ~use_pgo:false f in
  (* Expected visits to block 1 with back-edge prob 0.75: 1/(1-0.75)=4. *)
  check tb "loop body amplified" true (freq.(1) > 3.0 && freq.(1) < 4.5);
  check tb "exit once" true (abs_float (freq.(2) -. 1.0) < 0.2)

let test_cfg_pgo_vs_true () =
  let f = diamond_func ~prob:0.1 ~pgo_prob:0.9 () in
  let t = Ir.Cfg.estimate_frequencies ~use_pgo:false f in
  let p = Ir.Cfg.estimate_frequencies ~use_pgo:true f in
  check tb "true says block1 cold" true (t.(1) < 0.2);
  check tb "pgo says block1 hot" true (p.(1) > 0.8)

let test_cfg_edge_frequencies () =
  let f = diamond_func ~prob:0.3 () in
  let edges = Ir.Cfg.edge_frequencies ~use_pgo:false f in
  let w s d =
    List.fold_left (fun acc (a, b, w) -> if a = s && b = d then acc +. w else acc) 0.0 edges
  in
  check tb "0->1 weight" true (abs_float (w 0 1 -. 0.3) < 1e-3);
  check tb "0->2 weight" true (abs_float (w 0 2 -. 0.7) < 1e-3)

let test_dominators_diamond () =
  let f = diamond_func () in
  let idom = Ir.Cfg.immediate_dominators f in
  check ti "entry self-dominates" 0 idom.(0);
  check ti "branch arms dominated by entry" 0 idom.(1);
  check ti "other arm too" 0 idom.(2);
  (* The join point's idom is the entry, not either arm. *)
  check ti "join dominated by entry" 0 idom.(3);
  check tb "entry dominates all" true
    (Ir.Cfg.dominates f 0 3 && Ir.Cfg.dominates f 0 1 && Ir.Cfg.dominates f 0 2);
  check tb "arm does not dominate join" false (Ir.Cfg.dominates f 1 3);
  check tb "dominates is reflexive" true (Ir.Cfg.dominates f 2 2)

let test_dominators_chain () =
  let f =
    Ir.Func.make ~name:"chain"
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 1);
        compute_block ~id:1 ~bytes:4 ~term:(Ir.Term.Jump 2);
        compute_block ~id:2 ~bytes:4 ~term:Ir.Term.Return;
      |]
  in
  let idom = Ir.Cfg.immediate_dominators f in
  check ti "1's idom" 0 idom.(1);
  check ti "2's idom" 1 idom.(2);
  check tb "transitive dominance" true (Ir.Cfg.dominates f 0 2)

let test_dominators_unreachable () =
  let f =
    Ir.Func.make ~name:"unreach"
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 2);
        compute_block ~id:1 ~bytes:4 ~term:Ir.Term.Return;
        compute_block ~id:2 ~bytes:4 ~term:Ir.Term.Return;
      |]
  in
  let idom = Ir.Cfg.immediate_dominators f in
  check ti "unreachable marked" (-1) idom.(1);
  check tb "unreachable dominates nothing" false (Ir.Cfg.dominates f 1 2)

let test_loop_headers () =
  let f = loop_func () in
  check Alcotest.(list int) "loop body is the header" [ 1 ] (Ir.Cfg.loop_headers f);
  check Alcotest.(list int) "diamond has no loops" [] (Ir.Cfg.loop_headers (diamond_func ()))

let test_loop_headers_nested () =
  (* 0 -> 1 -> 2; 2 -> 2 (inner self-loop), 2 -> 1 (outer), 2 -> 3 exit. *)
  let f =
    Ir.Func.make ~name:"nested"
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 1);
        compute_block ~id:1 ~bytes:4 ~term:(Ir.Term.Jump 2);
        Ir.Block.make ~id:2 ~body:[]
          ~term:
            (Ir.Term.Switch
               { table = [| 2; 1; 3 |]; probs = [| 0.5; 0.3; 0.2 |]; pgo_probs = [| 0.5; 0.3; 0.2 |] })
          ();
        compute_block ~id:3 ~bytes:4 ~term:Ir.Term.Return;
      |]
  in
  check Alcotest.(list int) "both headers found" [ 1; 2 ] (Ir.Cfg.loop_headers f)

(* Build keys digest [Ir.Func.render]'s bytes, which must be exactly
   what [Ir.Func.pp] prints through Format: on every function of
   generated programs, and on the shapes they rarely draw (lines past
   the margin, landing pads, empty bodies, non-finite probabilities,
   extreme ints). *)
let test_func_render_matches_pp () =
  let same (f : Ir.Func.t) =
    let b = Buffer.create 256 in
    Ir.Func.render b f;
    check ts f.name (Format.asprintf "%a" Ir.Func.pp f) (Buffer.contents b)
  in
  let _, program = medium_program () in
  Ir.Program.iter_funcs program same;
  Ir.Program.iter_funcs (Codegen.Inline.program program) same;
  let long = String.make 120 'x' in
  same
    (Ir.Func.make ~name:long
       [|
         Ir.Block.make ~id:0
           ~body:
             [
               Ir.Inst.DirectCall long;
               Ir.Inst.DelinquentLoad { bytes = 7; miss_prob = Float.nan };
               Ir.Inst.VirtualCall { callees = [| ("a", 0.5); ("b", 0.5) |] };
               Ir.Inst.JumpTableData 16;
               Ir.Inst.MemStore 3;
               Ir.Inst.MemLoad 4;
               Ir.Inst.Compute (-3);
               Ir.Inst.Compute max_int;
               Ir.Inst.Compute min_int;
             ]
           ~term:(branch ~taken:1 ~fallthrough:2 ~prob:Float.infinity ())
           ();
         Ir.Block.make ~is_landing_pad:true ~id:1 ~body:[]
           ~term:
             (Ir.Term.Switch
                {
                  table = Array.init 40 (fun i -> 1 + (i mod 2));
                  probs = Array.make 40 0.025;
                  pgo_probs = Array.make 40 0.025;
                })
           ();
         compute_block ~id:2 ~bytes:1 ~term:Ir.Term.Return;
       |])

let suite =
  [
    Alcotest.test_case "func render = pp bytes" `Quick test_func_render_matches_pp;
    Alcotest.test_case "inst sizes" `Quick test_inst_sizes;
    Alcotest.test_case "inst callees" `Quick test_inst_callees;
    Alcotest.test_case "term successors" `Quick test_term_successors;
    Alcotest.test_case "term probabilities" `Quick test_term_probs;
    Alcotest.test_case "term map_blocks" `Quick test_term_map_blocks;
    Alcotest.test_case "func validation" `Quick test_func_validation;
    Alcotest.test_case "func accessors" `Quick test_func_accessors;
    Alcotest.test_case "func calls" `Quick test_func_calls;
    Alcotest.test_case "program validation" `Quick test_program_validation;
    Alcotest.test_case "program lookup" `Quick test_program_lookup;
    Alcotest.test_case "cfg predecessors" `Quick test_cfg_predecessors;
    Alcotest.test_case "cfg reverse postorder" `Quick test_cfg_rpo;
    Alcotest.test_case "cfg unreachable blocks" `Quick test_cfg_unreachable;
    Alcotest.test_case "cfg frequencies: diamond" `Quick test_cfg_frequencies_diamond;
    Alcotest.test_case "cfg frequencies: loop" `Quick test_cfg_frequencies_loop;
    Alcotest.test_case "cfg frequencies: pgo vs true" `Quick test_cfg_pgo_vs_true;
    Alcotest.test_case "cfg edge frequencies" `Quick test_cfg_edge_frequencies;
    Alcotest.test_case "cfg dominators: diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "cfg dominators: chain" `Quick test_dominators_chain;
    Alcotest.test_case "cfg dominators: unreachable" `Quick test_dominators_unreachable;
    Alcotest.test_case "cfg loop headers" `Quick test_loop_headers;
    Alcotest.test_case "cfg loop headers: nested" `Quick test_loop_headers_nested;
  ]
