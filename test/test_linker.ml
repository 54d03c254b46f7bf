open Testutil

let link_program ?codegen ?link program = snd (compile_and_link ?codegen ?link program)

let test_addresses_disjoint_sorted () =
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  let blocks = Array.to_list binary.blocks in
  let sorted =
    List.sort (fun (a : Linker.Binary.block_info) b -> compare a.addr b.addr) blocks
  in
  let rec walk = function
    | (a : Linker.Binary.block_info) :: (b :: _ as rest) ->
      if a.addr + a.size > b.addr then
        Alcotest.failf "overlap: %s#%d [%d,%d) vs %s#%d [%d,%d)" a.func a.block a.addr
          (a.addr + a.size) b.func b.block b.addr (b.addr + b.size);
      walk rest
    | [ _ ] | [] -> ()
  in
  walk sorted;
  check tb "text within bounds" true
    (List.for_all
       (fun (b : Linker.Binary.block_info) ->
         b.addr >= binary.text_start && b.addr + b.size <= binary.text_end)
       blocks)

let test_entry_resolution () =
  let program = call_program () in
  let { Linker.Link.binary; _ } = link_program program in
  check tb "main resolves" true (Option.is_some (symbol_addr binary "main"));
  let main_addr = Option.get (symbol_addr binary "main") in
  let entry_block = Linker.Binary.block_info_exn binary ~func:"main" ~block:0 in
  check ti "function symbol = entry block" entry_block.addr main_addr

let test_relaxation_deletes_fallthrough () =
  let program = call_program () in
  let relaxed = link_program program in
  let unrelaxed =
    link_program ~link:{ Linker.Link.default_options with relax = false } program
  in
  check tb "jumps deleted" true (relaxed.stats.deleted_jumps > 0);
  check tb "branches shrunk" true (relaxed.stats.shrunk_branches > 0);
  check ti "no deletion without relax" 0 unrelaxed.stats.deleted_jumps;
  check tb "relaxed text smaller" true
    (Linker.Binary.text_bytes relaxed.binary < Linker.Binary.text_bytes unrelaxed.binary)

let test_relaxation_preserves_targets () =
  (* After relaxation every surviving branch still lands on its block. *)
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Array.iter
    (fun (info : Linker.Binary.block_info) ->
      List.iter
        (fun i ->
          match branch_target i with
          | Some (Isa.Target.Block { func; block }) ->
            let tgt = Linker.Binary.block_info_exn binary ~func ~block in
            check tb "target exists" true (tgt.size >= 0)
          | Some (Isa.Target.Func f) ->
            check tb "callee symbol" true (Option.is_some (symbol_addr binary f))
          | None -> ())
        info.insts)
    binary.blocks

let test_short_branches_in_range () =
  let _, program = medium_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Array.iter
    (fun (info : Linker.Binary.block_info) ->
      let addr = ref info.addr in
      List.iter
        (fun i ->
          let after = !addr + Isa.size i in
          (match i with
          | Isa.Jcc { target = Isa.Target.Block { func; block }; encoding = Isa.Short; _ }
          | Isa.Jmp { target = Isa.Target.Block { func; block }; encoding = Isa.Short } ->
            let tgt = Linker.Binary.block_info_exn binary ~func ~block in
            let disp = tgt.addr - after in
            if not (Isa.fits_short disp) then
              Alcotest.failf "short branch out of range: %s#%d -> %s#%d disp=%d" info.func
                info.block func block disp
          | _ -> ());
          addr := after)
        info.insts)
    binary.blocks

let test_jcc_reversal () =
  (* Layout [0;2;...] with branch taken->2: jcc skips the jmp, so the
     linker must reverse the condition and delete the jump. *)
  let f = diamond_func ~prob:0.9 () in
  let plan =
    {
      Codegen.Directive.func = "diamond";
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0; 1; 2; 3 ] } ];
    }
  in
  ignore plan;
  let u = Ir.Cunit.make ~name:"u" [ f ] in
  let program = Ir.Program.make ~name:"p" ~main:"diamond" [ u ] in
  (* default order puts 1 right after 0 (hot path): branch to 1 becomes
     the reversed fall-through. *)
  let { Linker.Link.binary; stats } = link_program program in
  check tb "something relaxed" true (stats.deleted_jumps > 0);
  let b0 = Linker.Binary.block_info_exn binary ~func:"diamond" ~block:0 in
  (* Block 0's surviving terminator must be a single conditional. *)
  let branches = List.filter is_branch b0.insts in
  check ti "one branch remains" 1 (List.length branches)

let test_ordering_file_respected () =
  let program = call_program () in
  let link_opts order =
    { Linker.Link.default_options with ordering = Some order }
  in
  let b1 = (link_program ~link:(link_opts [ "main"; "callee" ]) program).binary in
  let b2 = (link_program ~link:(link_opts [ "callee"; "main" ]) program).binary in
  let addr b f = Option.get (symbol_addr b f) in
  check tb "main first" true (addr b1 "main" < addr b1 "callee");
  check tb "callee first" true (addr b2 "callee" < addr b2 "main")

let test_ordering_unlisted_trail () =
  let program = call_program () in
  let b =
    (link_program ~link:{ Linker.Link.default_options with ordering = Some [ "callee" ] } program)
      .binary
  in
  let addr f = Option.get (symbol_addr b f) in
  check tb "listed section leads" true (addr "callee" < addr "main")

let test_duplicate_symbol_error () =
  let f1 = diamond_func ~name:"dup" () in
  let u1 = Ir.Cunit.make ~name:"u1" [ f1 ] in
  let o1 = Codegen.compile_unit Codegen.default_options u1 in
  try
    ignore (Linker.Link.link ~name:"t" ~entry:"dup" [ o1; o1 ]);
    Alcotest.fail "expected duplicate symbol error"
  with Linker.Link.Link_error _ -> ()

let test_unresolved_symbol_error () =
  let f =
    Ir.Func.make ~name:"main"
      [| Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "ghost" ] ~term:Ir.Term.Return () |]
  in
  (* Bypass Program.make validation by lowering the unit directly. *)
  let o = Codegen.compile_unit Codegen.default_options (Ir.Cunit.make ~name:"u" [ f ]) in
  try
    ignore (Linker.Link.link ~name:"t" ~entry:"main" [ o ]);
    Alcotest.fail "expected unresolved symbol error"
  with Linker.Link.Link_error _ -> ()

(* A one-object input of hand-made text sections: each is
   [(symbol, func, pieces)], a piece being [(block id, instructions)]. *)
let hand_object sections =
  Objfile.File.make ~name:"h.o" ~unit_name:"h"
    (List.map
       (fun (symbol, func, pieces) ->
         Objfile.Section.make ~name:(".text." ^ symbol) ~kind:Objfile.Section.Text ~symbol
           (Objfile.Section.Code
              (Objfile.Fragment.make ~func
                 (List.map
                    (fun (block, insts) ->
                      { Objfile.Fragment.block; insts; is_landing_pad = false })
                    pieces))))
       sections)

let link_error objs =
  match Linker.Link.link ~name:"t" ~entry:"f" objs with
  | _ -> "linked"
  | exception Linker.Link.Link_error msg -> msg

let jmp_to func block =
  Isa.Jmp { target = Isa.Target.Block { func; block }; encoding = Isa.Long }

let test_link_error_messages () =
  check ts "a block in two sections of its function" "block f#1 defined twice"
    (link_error
       [
         hand_object
           [
             ("f", "f", [ (0, [ Isa.Ret ]); (1, [ Isa.Ret ]) ]);
             ("f.cold", "f", [ (1, [ Isa.Ret ]) ]);
           ];
       ]);
  check ts "a missing block of the branch's own function" "unresolved block target f#3"
    (link_error [ hand_object [ ("f", "f", [ (0, [ jmp_to "f" 3 ]); (1, [ Isa.Ret ]) ]) ] ]);
  check ts "a block of a function with no section" "unresolved block target g#0"
    (link_error [ hand_object [ ("f", "f", [ (0, [ jmp_to "g" 0 ]) ]) ] ]);
  check ts "a call to a missing block" "unresolved block target f#2"
    (link_error
       [
         hand_object
           [ ("f", "f", [ (0, [ Isa.Call (Isa.Target.Block { func = "f"; block = 2 }) ]) ]) ];
       ]);
  (* Every block is registered before any target resolves, so a
     duplicate block in a later section is reported first. *)
  check ts "duplicates before targets" "block f#0 defined twice"
    (link_error
       [
         hand_object
           [ ("f", "f", [ (0, [ jmp_to "f" 5 ]) ]); ("f.1", "f", [ (0, [ Isa.Ret ]) ]) ];
       ])

let test_missing_entry_error () =
  let o = Codegen.compile_unit Codegen.default_options (Ir.Cunit.make ~name:"u" [ diamond_func () ]) in
  try
    ignore (Linker.Link.link ~name:"t" ~entry:"nope" [ o ]);
    Alcotest.fail "expected missing entry error"
  with Linker.Link.Link_error _ -> ()

let test_emit_relocs_section () =
  let program = call_program () in
  let plain = (link_program program).binary in
  let bm =
    (link_program ~link:{ Linker.Link.default_options with emit_relocs = true } program).binary
  in
  check ti "no rela by default" 0 (Linker.Binary.size_of_kind plain Objfile.Section.Rela);
  check tb "rela retained" true (Linker.Binary.size_of_kind bm Objfile.Section.Rela > 0);
  check tb "bm bigger" true (Linker.Binary.total_size bm > Linker.Binary.total_size plain)

let test_bbmap_retained_and_reencoded () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  check tb "maps retained" true (Array.length binary.bb_addr_map > 0);
  check tb "bbmap section sized" true
    (Linker.Binary.size_of_kind binary Objfile.Section.Bb_addr_map > 0);
  (* Re-encoded offsets must match final block addresses. *)
  List.iter
    (fun (fm : Objfile.Bbmap.func_map) ->
      let sym = Option.get (symbol_addr binary fm.func) in
      List.iter
        (fun (e : Objfile.Bbmap.entry) ->
          let owner = Objfile.Symname.owner fm.func in
          let info = Linker.Binary.block_info_exn binary ~func:owner ~block:e.bb_id in
          check ti "offset matches placement" info.addr (sym + e.offset);
          check ti "size matches placement" info.size e.size)
        fm.entries)
    (bb_map_of binary)

(* The link sizes its address-map section from the blocks of its map
   ranges; that must be what the entry records it once built encode
   to, on real programs. *)
let test_bbmap_size_real () =
  let cg, ld = Propeller.Pipeline.metadata_options in
  for k = 0 to 3 do
    let program = relink_family_program k in
    let { Linker.Link.binary; _ } =
      Linker.Link.link ~options:ld ~name:"size" ~entry:(Ir.Program.main program)
        (Codegen.compile_program cg program)
    in
    check ti
      (Printf.sprintf "relink %d map size" k)
      (Objfile.Bbmap.encoded_size (bb_map_of binary))
      (Linker.Binary.size_of_kind binary Objfile.Section.Bb_addr_map)
  done

let test_po_drops_bbmap () =
  let program = call_program () in
  let { Linker.Link.binary; _ } =
    link_program
      ~codegen:{ Codegen.default_options with emit_bb_addr_map = true }
      ~link:{ Linker.Link.default_options with keep_bb_addr_map = false }
      program
  in
  check ti "metadata dropped" 0 (Linker.Binary.size_of_kind binary Objfile.Section.Bb_addr_map);
  check tb "no maps" true (Array.length binary.bb_addr_map = 0)

let test_text_alignment () =
  let program = call_program () in
  let huge =
    (link_program ~link:{ Linker.Link.default_options with text_align = 2 * 1024 * 1024 } program)
      .binary
  in
  check ti "2M aligned" 0 (huge.text_start mod (2 * 1024 * 1024))

let test_find_block_by_addr () =
  let program = call_program () in
  let { Linker.Link.binary; _ } = link_program program in
  Array.iter
    (fun (info : Linker.Binary.block_info) ->
      (match Linker.Binary.find_block_by_addr binary info.addr with
      | Some b -> check ti "first byte maps back" info.block b.block
      | None -> Alcotest.fail "lookup failed");
      match Linker.Binary.find_block_by_addr binary (info.addr + info.size - 1) with
      | Some b ->
        check (Alcotest.pair ts ti) "last byte maps back" (info.func, info.block) (b.func, b.block)
      | None -> Alcotest.fail "lookup failed")
    binary.blocks

(* The address index belongs to its binary: once the binary is
   unreachable, so are the blocks the index sorted. *)
let[@inline never] index_a_block weak =
  let { Linker.Link.binary; _ } = link_program (call_program ()) in
  match Linker.Binary.find_block_by_addr binary binary.text_start with
  | Some b -> Weak.set weak 0 (Some b)
  | None -> Alcotest.fail "no block at text start"

let test_block_index_not_retained () =
  let weak = Weak.create 1 in
  index_a_block weak;
  Gc.full_major ();
  check tb "index dies with its binary" false (Weak.check weak 0)

let test_link_stats () =
  let _, program = medium_program () in
  let { Linker.Link.stats; _ } = link_program program in
  check tb "input bytes positive" true (stats.input_bytes > 0);
  check tb "peak mem >= 2x inputs" true
    (stats.peak_mem_bytes >= 2 * stats.input_bytes);
  check tb "time positive" true (stats.cpu_seconds > 0.0)

(* --- pinned outputs on real programs ------------------------------ *)

(* MD5 of the retained address maps: every entry of every function map,
   in emitted order, as the link encoded them when it kept one record
   per block ([bb_map_of] rebuilds them from the map ranges). *)
let bb_maps_digest (maps : Objfile.Bbmap.t) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (fm : Objfile.Bbmap.func_map) ->
      Buffer.add_string b fm.func;
      List.iter
        (fun (e : Objfile.Bbmap.entry) ->
          Printf.bprintf b " %d:%d:%d:%b:%b" e.bb_id e.offset e.size e.can_fallthrough
            e.is_landing_pad)
        fm.entries;
      Buffer.add_char b '\n')
    maps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The four links of one program: the metadata build, the optimized
   build with WPA's plans and ordering file, the metadata build without
   relaxation, and the optimized build keeping its relocations. *)
let pinned_links ~requests program =
  let env = Buildsys.Driver.make_env () in
  let r =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests };
        }
      ~env ~program ~name:"pin" ()
  in
  let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
  let cg_opt, ld_opt = Propeller.Pipeline.optimize_options r.wpa in
  let meta = Codegen.compile_program cg_meta program in
  let opt = Codegen.compile_program cg_opt program in
  let link options objs =
    Linker.Link.link ~options ~name:"pin" ~entry:(Ir.Program.main program) objs
  in
  [
    ("metadata", link ld_meta meta);
    ("optimized", link ld_opt opt);
    ("no-relax", link { ld_meta with relax = false } meta);
    ("emit-relocs", link { ld_opt with emit_relocs = true } opt);
  ]

let pinned_line program (name, { Linker.Link.binary; stats }) =
  Printf.sprintf "%s %s %s iters=%d deleted=%d shrunk=%d out=%d" name
    (Support.Digesting.to_hex (Linker.Binary.image_digest binary))
    (bb_maps_digest (bb_map_of ~program binary)) stats.relax_iters stats.deleted_jumps
    stats.shrunk_branches stats.output_bytes

(* Image digest, address-map digest and relaxation/size figures of
   every link above, for program 0 of the relink family and for
   505.mcf. Any change to the linker's working form must reproduce
   them exactly; only a deliberate output change may update a line. *)
let pinned_outputs =
  [
    ( "relink-family 0",
      [
        "metadata 0f291096107384bf1f76cb03fcaa0781 0e2ce4feb3adf039a84d4bda118a9a06 iters=6 \
         deleted=7193 shrunk=4634 out=1283097";
        "optimized 350fac0994917511644b14e521839c9b d41d8cd98f00b204e9800998ecf8427e iters=6 \
         deleted=7219 shrunk=4594 out=1235464";
        "no-relax 3c2a8729e657551aa67af2f3b9990c50 859ba858ec19c1f4d084065663d8c915 iters=1 \
         deleted=0 shrunk=0 out=1332877";
        "emit-relocs 36f2f02ac847c715baea1a78b22fe50f d41d8cd98f00b204e9800998ecf8427e iters=6 \
         deleted=7219 shrunk=4594 out=1724416";
      ] );
    ( "505.mcf",
      [
        "metadata 2256935acbdab553ef1ddf6b7f4fa431 f15559920adcead5c175c03f21103cf7 iters=4 \
         deleted=992 shrunk=646 out=104996";
        "optimized 01f861ba9e743d3177eaaaaec467893f d41d8cd98f00b204e9800998ecf8427e iters=5 \
         deleted=1010 shrunk=637 out=100697";
        "no-relax 4cfcdba1c59767e5dbb497c66b8cd857 87e7ea29f8b67752d7e13455f67014c8 iters=1 \
         deleted=0 shrunk=0 out=111850";
        "emit-relocs 9d5c4a99bd17dcc5d5b05528ea10d8dd d41d8cd98f00b204e9800998ecf8427e iters=5 \
         deleted=1010 shrunk=637 out=166937";
      ] );
  ]

let test_pinned_outputs () =
  let mcf = Option.get (Progen.Suite.by_name "505.mcf") in
  let programs =
    [
      ("relink-family 0", (relink_family_program 0, Progen.Suite.clang.requests / 16));
      ("505.mcf", (Codegen.Inline.program (Progen.Generate.program mcf), 40));
    ]
  in
  List.iter
    (fun (label, expected) ->
      let program, requests = List.assoc label programs in
      check
        Alcotest.(list string)
        label expected
        (List.map (pinned_line program) (pinned_links ~requests program)))
    pinned_outputs

let suite =
  [
    Alcotest.test_case "addresses disjoint and bounded" `Quick test_addresses_disjoint_sorted;
    Alcotest.test_case "entry resolution" `Quick test_entry_resolution;
    Alcotest.test_case "relaxation deletes fallthroughs" `Quick test_relaxation_deletes_fallthrough;
    Alcotest.test_case "relaxation preserves targets" `Quick test_relaxation_preserves_targets;
    Alcotest.test_case "short branches in range" `Quick test_short_branches_in_range;
    Alcotest.test_case "jcc reversal" `Quick test_jcc_reversal;
    Alcotest.test_case "ordering file respected" `Quick test_ordering_file_respected;
    Alcotest.test_case "unlisted sections trail" `Quick test_ordering_unlisted_trail;
    Alcotest.test_case "duplicate symbol error" `Quick test_duplicate_symbol_error;
    Alcotest.test_case "unresolved symbol error" `Quick test_unresolved_symbol_error;
    Alcotest.test_case "missing entry error" `Quick test_missing_entry_error;
    Alcotest.test_case "link error messages" `Quick test_link_error_messages;
    Alcotest.test_case "emit relocs" `Quick test_emit_relocs_section;
    Alcotest.test_case "bb map retained and re-encoded" `Quick test_bbmap_retained_and_reencoded;
    Alcotest.test_case "optimized link drops bb map" `Quick test_po_drops_bbmap;
    Alcotest.test_case "hugepage text alignment" `Quick test_text_alignment;
    Alcotest.test_case "find block by address" `Quick test_find_block_by_addr;
    Alcotest.test_case "block index dies with its binary" `Quick test_block_index_not_retained;
    Alcotest.test_case "link stats" `Quick test_link_stats;
    Alcotest.test_case "bb map size = encoded entries on real programs" `Quick
      test_bbmap_size_real;
    Alcotest.test_case "pinned outputs on real programs" `Quick test_pinned_outputs;
  ]
