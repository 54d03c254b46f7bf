open Testutil

let piece block insts = { Objfile.Fragment.block; insts; is_landing_pad = false }

let simple_frag () =
  Objfile.Fragment.make ~func:"f"
    [
      piece 0 [ Isa.Alu 4; Isa.Jcc { cond = Isa.Cond.Eq; target = Isa.Target.Block { func = "f"; block = 1 }; encoding = Isa.Long } ];
      piece 1 [ Isa.Alu 6; Isa.Ret ];
    ]

let test_fragment_sizes () =
  let f = simple_frag () in
  check ti "byte size" (4 + 6 + 6 + 1) (Objfile.Fragment.byte_size f);
  match piece_offsets f with
  | [ (_, 0); (_, 10) ] -> ()
  | offs -> Alcotest.failf "bad offsets: %s" (String.concat "," (List.map (fun (_, o) -> string_of_int o) offs))

let test_fragment_relocs () =
  let f = simple_frag () in
  check ti "one branch reloc" 1 (Array.length f.index.sites);
  let with_call =
    Objfile.Fragment.make ~func:"g" [ piece 0 [ Isa.Call (Isa.Target.Func "f"); Isa.Ret ] ]
  in
  check ti "calls relocate too" 1 (Array.length with_call.index.sites)

let test_fragment_rejects_empty () =
  try
    ignore (Objfile.Fragment.make ~func:"f" []);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let test_bbmap_encoded_size () =
  let entry off = { Objfile.Bbmap.bb_id = 1; offset = off; size = 10; can_fallthrough = true; is_landing_pad = false } in
  let size_small = Objfile.Bbmap.encoded_size [ { Objfile.Bbmap.func = "f"; entries = [ entry 10 ] } ] in
  let size_big = Objfile.Bbmap.encoded_size [ { Objfile.Bbmap.func = "f"; entries = [ entry 100000 ] } ] in
  check tb "uleb grows with offsets" true (size_big > size_small);
  (* header 9 + id(1) + offset(1) + size(1) + flags(1) *)
  check ti "small entry encoding" 13 size_small

let test_symname_roundtrips () =
  check ts "cold" "foo.cold" (Objfile.Symname.cold "foo");
  check ts "cluster" "foo.2" (Objfile.Symname.cluster "foo" 2);
  check ts "owner of cold" "foo" (Objfile.Symname.owner "foo.cold");
  check ts "owner of cluster" "foo" (Objfile.Symname.owner "foo.7");
  check ts "owner of plain" "foo" (Objfile.Symname.owner "foo");
  check ts "owner keeps interior dots" "a.b" (Objfile.Symname.owner "a.b");
  check tb "is_cold" true (Objfile.Symname.is_cold "foo.cold");
  check tb "not cold" false (Objfile.Symname.is_cold "foo.col")

let symname_owner_law =
  QCheck.Test.make ~count:200 ~name:"owner inverts cold/cluster naming"
    QCheck.(string_gen_of_size (Gen.int_range 1 12) Gen.(char_range 'a' 'z'))
    (fun f ->
      String.equal (Objfile.Symname.owner (Objfile.Symname.cold f)) f
      && String.equal (Objfile.Symname.owner (Objfile.Symname.cluster f 3)) f)

let test_section_sizes () =
  let s =
    Objfile.Section.make ~name:".text.f" ~kind:Objfile.Section.Text ~symbol:"f"
      (Objfile.Section.Code (simple_frag ()))
  in
  check ti "code section size" 17 (Objfile.Section.size s);
  check tb "is text" true (Objfile.Section.is_text s);
  let raw = Objfile.Section.make ~name:".rodata" ~kind:Objfile.Section.Rodata (Objfile.Section.Raw 100) in
  check ti "raw size" 100 (Objfile.Section.size raw);
  check tb "raw not text" false (Objfile.Section.is_text raw)

let test_file_accessors () =
  let text =
    Objfile.Section.make ~name:".text.f" ~kind:Objfile.Section.Text ~symbol:"f"
      (Objfile.Section.Code (simple_frag ()))
  in
  let ro = Objfile.Section.make ~name:".rodata" ~kind:Objfile.Section.Rodata (Objfile.Section.Raw 64) in
  let o = Objfile.File.make ~name:"u.o" ~unit_name:"u" [ text; ro ] in
  check ti "one text section" 1 (num_text_sections o);
  check ti "text bytes" 17 (size_by_kind o Objfile.Section.Text);
  check ti "total" (17 + 64) (Objfile.File.total_size o)

(* --- The relocation index ------------------------------------------ *)

(* The index as a plain walk of each piece's instructions gives it:
   sizes, the relocation sites, and for each branch the run of other
   instructions since the previous branch. *)
let check_index_is_walk (f : Objfile.Fragment.t) =
  let ix = f.index in
  let size p = List.fold_left (fun acc i -> acc + Isa.size i) 0 p.Objfile.Fragment.insts in
  let sites p = List.filter (fun i -> Option.is_some (branch_target i)) p.Objfile.Fragment.insts in
  let runs p =
    let _, _, rev =
      List.fold_left
        (fun (bytes, count, acc) i ->
          if is_branch i then (0, 0, (bytes, count) :: acc)
          else (bytes + Isa.size i, count + 1, acc))
        (0, 0, []) p.Objfile.Fragment.insts
    in
    List.rev rev
  in
  let starts lens = List.rev (List.fold_left (fun acc n -> (List.hd acc + n) :: acc) [ 0 ] lens) in
  let arr = Array.to_list in
  check ti "bytes" (List.fold_left (fun acc p -> acc + size p) 0 f.pieces) ix.bytes;
  check ti "byte_size" ix.bytes (Objfile.Fragment.byte_size f);
  check Alcotest.(list int) "sizes" (List.map size f.pieces) (arr ix.sizes);
  check Alcotest.(list string) "sites"
    (List.map Isa.to_string (List.concat_map sites f.pieces))
    (List.map Isa.to_string (arr ix.sites));
  check Alcotest.(list int) "branch starts"
    (starts (List.map (fun p -> List.length (runs p)) f.pieces))
    (arr ix.branch_start);
  let all_runs = List.concat_map runs f.pieces in
  check Alcotest.(list int) "pre bytes" (List.map fst all_runs) (arr ix.pre_bytes);
  check Alcotest.(list int) "pre counts" (List.map snd all_runs) (arr ix.pre_count);
  check Alcotest.(list int) "piece offsets"
    (List.rev (List.tl (List.rev (starts (List.map size f.pieces)))))
    (List.map snd (piece_offsets f))

let gen_piece =
  let open QCheck.Gen in
  let target =
    oneof
      [
        map2
          (fun func block -> Isa.Target.Block { func; block })
          (oneofl [ "f"; "g" ]) (int_bound 9);
        map (fun f -> Isa.Target.Func f) (oneofl [ "f"; "g" ]);
      ]
  in
  let encoding = oneofl [ Isa.Short; Isa.Long ] in
  let inst =
    oneof
      [
        map (fun n -> Isa.Alu n) (int_range 1 15);
        map (fun n -> Isa.Load n) (int_range 1 15);
        map (fun n -> Isa.Store n) (int_range 1 15);
        map3
          (fun cond target encoding -> Isa.Jcc { cond; target; encoding })
          (oneofl Isa.Cond.[ Eq; Ne; Lt; Ge; Le; Gt ])
          target encoding;
        map2 (fun target encoding -> Isa.Jmp { target; encoding }) target encoding;
        map (fun t -> Isa.Call t) target;
        oneofl [ Isa.IndirectCall; Isa.IndirectJmp; Isa.Ret; Isa.Prefetch ];
        map (fun n -> Isa.Nop n) (int_range 1 9);
        map (fun n -> Isa.InlineData n) (int_range 1 64);
      ]
  in
  (* A landing pad that starts its section begins with a one-byte Nop,
     as codegen pads it. *)
  map3
    (fun block insts is_landing_pad ->
      let insts = if is_landing_pad then Isa.Nop 1 :: insts else insts in
      { Objfile.Fragment.block; insts; is_landing_pad })
    (int_bound 20)
    (list_size (int_bound 12) inst)
    bool

let fragment_index_law =
  QCheck.Test.make ~count:300 ~name:"fragment index = instruction walk"
    (QCheck.make
       ~print:(fun pieces ->
         String.concat " | "
           (List.map
              (fun (p : Objfile.Fragment.piece) ->
                String.concat "; " (List.map Isa.to_string p.insts))
              pieces))
       QCheck.Gen.(list_size (int_range 1 6) gen_piece))
    (fun pieces ->
      check_index_is_walk (Objfile.Fragment.make ~func:"f" pieces);
      true)

(* Every fragment codegen emits for two real programs: whole-function
   sections, and clusters that split each function's even blocks from
   the cold rest. *)
let test_fragment_index_real_programs () =
  let mcf = Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")) in
  let split program =
    Ir.Program.fold_funcs program [] (fun acc f ->
        let even = List.filter (fun b -> b mod 2 = 0) (List.init (Ir.Func.num_blocks f) Fun.id) in
        {
          Codegen.Directive.func = f.name;
          clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = even } ];
        }
        :: acc)
  in
  List.iter
    (fun program ->
      List.iter
        (fun options ->
          List.iter
            (fun (o : Objfile.File.t) ->
              List.iter
                (fun s -> Option.iter check_index_is_walk (fragment s))
                o.sections)
            (Codegen.compile_program ~ctx:(ctx ()) options program))
        [
          { Codegen.default_options with emit_bb_addr_map = true };
          { Codegen.default_options with emit_bb_addr_map = true; plans = split program };
        ])
    [ relink_family_program 0; Codegen.Inline.program mcf ]

let suite =
  [
    Alcotest.test_case "fragment sizes and offsets" `Quick test_fragment_sizes;
    Alcotest.test_case "fragment relocations" `Quick test_fragment_relocs;
    Alcotest.test_case "fragment rejects empty" `Quick test_fragment_rejects_empty;
    QCheck_alcotest.to_alcotest fragment_index_law;
    Alcotest.test_case "fragment index on real programs" `Quick test_fragment_index_real_programs;
    Alcotest.test_case "bbmap encoded size" `Quick test_bbmap_encoded_size;
    Alcotest.test_case "symname conventions" `Quick test_symname_roundtrips;
    QCheck_alcotest.to_alcotest symname_owner_law;
    Alcotest.test_case "section sizes" `Quick test_section_sizes;
    Alcotest.test_case "object accessors" `Quick test_file_accessors;
  ]
