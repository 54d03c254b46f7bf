open Testutil

let lower_default f =
  Codegen.Lower.lower_func ~emit_bb_addr_map:false ~plan:None
    ~default_order:(List.init (Ir.Func.num_blocks f) Fun.id)
    f

(* The code pieces of some sections, in section order. *)
let pieces secs =
  List.concat_map
    (fun s -> match fragment s with Some (frag : Objfile.Fragment.t) -> frag.pieces | None -> [])
    secs

(* The lowered code of block [b] of [f] in its default lowering. *)
let lowered_block (f : Ir.Func.t) b =
  (List.find (fun (p : Objfile.Fragment.piece) -> p.block = b) (pieces (lower_default f))).insts

let test_lower_block_explicit_fallthrough () =
  let f = diamond_func () in
  let insts = lowered_block f 0 in
  (* Body + jcc(taken) + jmp(fallthrough): explicit fall-through, long
     encodings (4.2). *)
  match List.rev insts with
  | Isa.Jmp { target = Isa.Target.Block { block = 2; _ }; encoding = Isa.Long }
    :: Isa.Jcc { target = Isa.Target.Block { block = 1; _ }; encoding = Isa.Long; _ } :: _ -> ()
  | _ -> Alcotest.failf "unexpected lowering: %s" (String.concat "; " (List.map Isa.to_string insts))

let test_lower_return_and_switch () =
  let f = diamond_func () in
  let ret_insts = lowered_block f 3 in
  check tb "ends in ret" true (List.nth ret_insts (List.length ret_insts - 1) = Isa.Ret);
  let sw =
    Ir.Func.make ~name:"s"
      [|
        Ir.Block.make ~id:0 ~body:[]
          ~term:(Ir.Term.Switch { table = [| 0 |]; probs = [| 1.0 |]; pgo_probs = [| 1.0 |] })
          ();
      |]
  in
  let insts = lowered_block sw 0 in
  check tb "switch dispatches indirectly" true (List.mem Isa.IndirectJmp insts)

let test_block_code_bytes_consistent () =
  let f = diamond_func () in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    let blk = Ir.Func.block f b in
    let lowered = List.fold_left (fun acc i -> acc + Isa.size i) 0 (lowered_block f b) in
    check ti "sizing shortcut matches lowering" lowered (Codegen.Lower.block_code_bytes blk)
  done

let test_lower_single_section () =
  let f = diamond_func () in
  match lower_default f with
  | [ s ] ->
    check ts "section name" ".text.diamond" s.Objfile.Section.name;
    check (Alcotest.option ts) "symbol" (Some "diamond") s.Objfile.Section.symbol
  | l -> Alcotest.failf "expected one section, got %d" (List.length l)

let test_lower_with_plan_clusters () =
  let f = diamond_func () in
  let plan =
    {
      Codegen.Directive.func = "diamond";
      clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0; 2 ] } ];
    }
  in
  let secs =
    Codegen.Lower.lower_func ~emit_bb_addr_map:false ~plan:(Some plan) ~default_order:[] f
  in
  (* Primary cluster (0,2) plus the implicit cold cluster (1,3). *)
  check ti "two sections" 2 (List.length secs);
  let names = List.map (fun (s : Objfile.Section.t) -> Option.get s.symbol) secs in
  check Alcotest.(list string) "symbols" [ "diamond"; "diamond.cold" ] names;
  let cold = List.nth secs 1 in
  (match fragment cold with
  | Some frag ->
    check Alcotest.(list int) "cold blocks" [ 1; 3 ]
      (List.map (fun (p : Objfile.Fragment.piece) -> p.block) frag.pieces)
  | None -> Alcotest.fail "no fragment")

let test_lower_invalid_plan_rejected () =
  let f = diamond_func () in
  let plan =
    {
      Codegen.Directive.func = "diamond";
      clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 1 ] } ];
    }
  in
  try
    ignore (Codegen.Lower.lower_func ~emit_bb_addr_map:false ~plan:(Some plan) ~default_order:[] f);
    Alcotest.fail "expected rejection: primary must start with block 0"
  with Invalid_argument _ -> ()

let test_lower_landing_pad_nop () =
  let f =
    Ir.Func.make ~name:"eh"
      ~attrs:{ Ir.Func.exported = false; has_exceptions = true; has_inline_asm = false }
      [|
        compute_block ~id:0 ~bytes:4 ~term:(Ir.Term.Jump 1);
        Ir.Block.make ~id:1 ~body:[ Ir.Inst.Compute 4 ] ~term:Ir.Term.Return ~is_landing_pad:true ();
      |]
  in
  let plan =
    {
      Codegen.Directive.func = "eh";
      clusters =
        [
          { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0 ] };
          { Codegen.Directive.kind = Codegen.Directive.Cold; blocks = [ 1 ] };
        ];
    }
  in
  let secs = Codegen.Lower.lower_func ~emit_bb_addr_map:false ~plan:(Some plan) ~default_order:[] f in
  let cold = List.nth secs 1 in
  match fragment cold with
  | Some { pieces = p :: _; _ } ->
    (* Landing pad at section start must get the non-zero-offset nop (4.5). *)
    check tb "nop injected" true (List.hd p.insts = Isa.Nop 1)
  | Some { pieces = []; _ } | None -> Alcotest.fail "no cold piece"

let test_bbmap_emitted () =
  let f = diamond_func () in
  let secs =
    Codegen.Lower.lower_func ~emit_bb_addr_map:true ~plan:None
      ~default_order:[ 0; 1; 2; 3 ] f
  in
  check ti "text + map" 2 (List.length secs);
  let map_sec = List.nth secs 1 in
  match map_sec.Objfile.Section.contents with
  | Objfile.Section.Map [ fm ] ->
    check ts "keyed by symbol" "diamond" fm.func;
    check ti "entry per block" 4 (List.length fm.entries);
    (* Offsets are consecutive and sizes positive. *)
    let rec walk expected = function
      | [] -> ()
      | (e : Objfile.Bbmap.entry) :: rest ->
        check ti "offset" expected e.offset;
        check tb "size > 0" true (e.size > 0);
        walk (expected + e.size) rest
    in
    walk 0 fm.entries
  | _ -> Alcotest.fail "no bb map"

(* The block order codegen emits [f] in, with or without PGO layout. *)
let intra_order ~use_pgo f =
  let o =
    Codegen.compile_unit ~ctx:(ctx ()) { Codegen.default_options with pgo_layout = use_pgo }
      (Ir.Cunit.make ~name:"u" [ f ])
  in
  List.map (fun (p : Objfile.Fragment.piece) -> p.block) (pieces o.Objfile.File.sections)

let test_intra_order_pgo () =
  (* With a strongly-biased branch, PGO layout puts the hot side next. *)
  let f = diamond_func ~prob:0.95 ~pgo_prob:0.95 () in
  (match intra_order ~use_pgo:true f with
  | 0 :: 1 :: _ -> ()
  | o -> Alcotest.failf "hot side not adjacent: %s" (String.concat "," (List.map string_of_int o)));
  (* Without PGO the source order is kept. *)
  check Alcotest.(list int) "source order" [ 0; 1; 2; 3 ] (intra_order ~use_pgo:false f)

let test_intra_order_inline_asm_pinned () =
  let f = diamond_func ~prob:0.95 () in
  let f = { f with Ir.Func.attrs = { f.attrs with has_inline_asm = true } } in
  check Alcotest.(list int) "asm never reordered" [ 0; 1; 2; 3 ]
    (intra_order ~use_pgo:true f)

let test_compile_unit_sections () =
  let u = Ir.Cunit.make ~name:"u" ~rodata:128 ~data:64 [ diamond_func (); loop_func () ] in
  let o =
    Codegen.compile_unit ~ctx:(ctx ()) { Codegen.default_options with emit_bb_addr_map = true } u
  in
  check ti "two text sections" 2 (num_text_sections o);
  check tb "has eh_frame" true (size_by_kind o Objfile.Section.Eh_frame > 0);
  check ti "rodata carried" 128 (size_by_kind o Objfile.Section.Rodata);
  check ti "data carried" 64 (size_by_kind o Objfile.Section.Data);
  check tb "bb maps" true (size_by_kind o Objfile.Section.Bb_addr_map > 0)

let test_eh_frame_grows_with_clusters () =
  let u = Ir.Cunit.make ~name:"u" [ diamond_func () ] in
  let plain = Codegen.compile_unit ~ctx:(ctx ()) Codegen.default_options u in
  let split_plan =
    [
      {
        Codegen.Directive.func = "diamond";
        clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0; 1 ] } ];
      };
    ]
  in
  let split =
    Codegen.compile_unit ~ctx:(ctx ()) { Codegen.default_options with plans = split_plan } u
  in
  check tb "split pays CFI overhead (4.4)" true
    (size_by_kind split Objfile.Section.Eh_frame
    > size_by_kind plain Objfile.Section.Eh_frame)

let test_inline_asm_plan_ignored () =
  let f = diamond_func () in
  let f = { f with Ir.Func.attrs = { f.attrs with has_inline_asm = true } } in
  let u = Ir.Cunit.make ~name:"u" [ f ] in
  let plan =
    [
      {
        Codegen.Directive.func = "diamond";
        clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0; 3 ] } ];
      };
    ]
  in
  let o = Codegen.compile_unit ~ctx:(ctx ()) { Codegen.default_options with plans = plan } u in
  check ti "asm function stays in one section" 1 (num_text_sections o)

(* --- Directive serialization -------------------------------------- *)

let test_directive_validate () =
  let plan clusters = { Codegen.Directive.func = "f"; clusters } in
  let primary blocks = { Codegen.Directive.kind = Codegen.Directive.Primary; blocks } in
  let cold blocks = { Codegen.Directive.kind = Codegen.Directive.Cold; blocks } in
  check tb "ok" true (Result.is_ok (Codegen.Directive.validate ~num_blocks:4 (plan [ primary [ 0; 1 ]; cold [ 2 ] ])));
  check tb "no primary" true (Result.is_error (Codegen.Directive.validate ~num_blocks:4 (plan [ cold [ 0 ] ])));
  check tb "dup block" true
    (Result.is_error (Codegen.Directive.validate ~num_blocks:4 (plan [ primary [ 0; 1 ]; cold [ 1 ] ])));
  check tb "out of range" true
    (Result.is_error (Codegen.Directive.validate ~num_blocks:2 (plan [ primary [ 0; 5 ] ])));
  check tb "primary must start at 0" true
    (Result.is_error (Codegen.Directive.validate ~num_blocks:4 (plan [ primary [ 1; 0 ] ])))

(* The cc_prof text a unit key digests: nothing for no plans. *)
let test_directive_text () =
  check ts "no plans" "" (Codegen.Directive.to_text []);
  check ts "clusters"
    "!f\n!!primary 0 2\n!!cold 1 3\n!!2 4\n!g\n!!primary 0\n"
    (Codegen.Directive.to_text
       [
         {
           Codegen.Directive.func = "f";
           clusters =
             [
               { kind = Codegen.Directive.Primary; blocks = [ 0; 2 ] };
               { kind = Codegen.Directive.Cold; blocks = [ 1; 3 ] };
               { kind = Codegen.Directive.Extra 2; blocks = [ 4 ] };
             ];
         };
         { func = "g"; clusters = [ { kind = Codegen.Directive.Primary; blocks = [ 0 ] } ] };
       ])

let test_directive_symbols () =
  let c kind = { Codegen.Directive.kind; blocks = [] } in
  check ts "primary" "f" (Codegen.Directive.symbol "f" (c Codegen.Directive.Primary));
  check ts "cold" "f.cold" (Codegen.Directive.symbol "f" (c Codegen.Directive.Cold));
  check ts "extra" "f.2" (Codegen.Directive.symbol "f" (c (Codegen.Directive.Extra 2)))

(* Every function of [program] with the block order its metadata
   build lays it out in: Ext-TSP's over its {!Codegen.intra_problem}
   when it has several blocks and no inline assembly, else source
   order. *)
let default_orders program =
  Ir.Program.fold_funcs program [] (fun acc (f : Ir.Func.t) ->
      let n = Ir.Func.num_blocks f in
      let order =
        if n > 1 && not f.attrs.has_inline_asm then Layout.Exttsp.order (Codegen.intra_problem f)
        else List.init n Fun.id
      in
      (f, order) :: acc)
  |> List.rev

(* Sections, address maps included, equal the list-based reference's on
   every function of relink programs 0-3, under the metadata build's
   orders. *)
let test_lowering_reference_relink () =
  List.iter
    (fun k ->
      List.iter
        (fun ((f : Ir.Func.t), default_order) ->
          if
            Codegen.Lower.lower_func ~emit_bb_addr_map:true ~plan:None ~default_order f
            <> Ref_lower.lower_func ~emit_bb_addr_map:true ~plan:None ~default_order f
          then
            Alcotest.failf "program %d: %s lowers unlike the reference" k f.name)
        (default_orders (relink_family_program k)))
    [ 0; 1; 2; 3 ]

(* Random small programs, half their functions with landing pads and
   many loads delinquent. Each function is lowered twice: in a random
   default order (which may begin with a landing pad), and under a
   random plan whose second cluster puts the function's landing pads
   first, its unlisted blocks left to the cold remainder; both with a
   random set of prefetch blocks. *)
let lowering_reference_law =
  QCheck.Test.make ~count:40 ~name:"lowering: sections and bb maps equal the reference"
    (QCheck.make ~print:(fun (seed, units) -> Printf.sprintf "seed=%d units=%d" seed units)
       QCheck.Gen.(pair (int_range 1 10_000) (int_range 1 4)))
    (fun (seed, units) ->
      let program =
        Progen.Generate.program
          {
            (Option.get (Progen.Suite.by_name "505.mcf")) with
            Progen.Spec.name = "lower";
            seed = Int64.of_int seed;
            num_units = units;
            funcs_per_unit_mean = 6.0;
            blocks_per_func_mean = 8.0;
            exception_fraction = 0.5;
            delinquent_fraction = 0.3;
          }
      in
      let rng = Support.Rng.create (Int64.of_int seed) in
      let take k l = List.filteri (fun i _ -> i < k) l in
      let drop k l = List.filteri (fun i _ -> i >= k) l in
      Ir.Program.fold_funcs program true (fun ok (f : Ir.Func.t) ->
          let n = Ir.Func.num_blocks f in
          let prefetch_blocks =
            List.filter (fun _ -> Support.Rng.bool rng 0.5) (List.init n Fun.id)
          in
          let shuffled = Array.init n Fun.id in
          shuffle rng shuffled;
          let rest = List.filter (fun b -> b <> 0) (Array.to_list shuffled) in
          let k = Support.Rng.int rng (List.length rest + 1) in
          let pads, plain =
            List.partition (fun b -> (Ir.Func.block f b).is_landing_pad) (drop k rest)
          in
          let second = pads @ take (Support.Rng.int rng (List.length plain + 1)) plain in
          let kind =
            if Support.Rng.bool rng 0.5 then Codegen.Directive.Cold else Codegen.Directive.Extra 1
          in
          let clusters =
            { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = 0 :: take k rest }
            :: (if second = [] then [] else [ { Codegen.Directive.kind; blocks = second } ])
          in
          let plan = Some { Codegen.Directive.func = f.name; clusters } in
          let same ~plan ~default_order =
            Codegen.Lower.lower_func ~emit_bb_addr_map:true ~plan ~default_order ~prefetch_blocks f
            = Ref_lower.lower_func ~emit_bb_addr_map:true ~plan ~default_order ~prefetch_blocks f
          in
          ok
          && same ~plan:None ~default_order:(Array.to_list shuffled)
          && same ~plan ~default_order:[]))

(* Building every layout problem of relink program 0, then lowering
   every function under the metadata options in its precomputed order:
   what the compile allocates beyond Ext-TSP. *)
let test_compile_allocation () =
  let orders = default_orders (relink_family_program 0) in
  let problems () =
    List.iter
      (fun ((f : Ir.Func.t), _) ->
        if Ir.Func.num_blocks f > 1 && not f.attrs.has_inline_asm then
          ignore (Codegen.intra_problem f : Layout.Problem.t))
      orders
  in
  let lower () =
    List.iter
      (fun (f, default_order) ->
        ignore
          (Codegen.Lower.lower_func ~emit_bb_addr_map:true ~plan:None ~default_order f
            : Objfile.Section.t list))
      orders
  in
  let words = allocated_words problems +. allocated_words lower in
  (* Measured: 1 016 570 words, against 2 132 160 when the CFG's edges
     were a tuple list that the problem deduplicated, each block's code
     was concatenated from per-instruction lists and the fragment index
     allocated closures and counters per piece. *)
  if words > 1_250_000. then
    Alcotest.failf "compiling relink program 0 allocated %.0f words" words

let suite =
  [
    Alcotest.test_case "lowering: explicit fallthrough" `Quick test_lower_block_explicit_fallthrough;
    Alcotest.test_case "lowering: return and switch" `Quick test_lower_return_and_switch;
    Alcotest.test_case "lowering: size shortcut" `Quick test_block_code_bytes_consistent;
    Alcotest.test_case "lowering: single section default" `Quick test_lower_single_section;
    Alcotest.test_case "lowering: plan clusters" `Quick test_lower_with_plan_clusters;
    Alcotest.test_case "lowering: invalid plan rejected" `Quick test_lower_invalid_plan_rejected;
    Alcotest.test_case "lowering: landing pad nop" `Quick test_lower_landing_pad_nop;
    Alcotest.test_case "lowering: bb address map" `Quick test_bbmap_emitted;
    Alcotest.test_case "intra order: pgo" `Quick test_intra_order_pgo;
    Alcotest.test_case "intra order: inline asm pinned" `Quick test_intra_order_inline_asm_pinned;
    Alcotest.test_case "compile unit sections" `Quick test_compile_unit_sections;
    Alcotest.test_case "eh_frame grows with clusters" `Quick test_eh_frame_grows_with_clusters;
    Alcotest.test_case "inline asm plan ignored" `Quick test_inline_asm_plan_ignored;
    Alcotest.test_case "directive validation" `Quick test_directive_validate;
    Alcotest.test_case "directive symbols" `Quick test_directive_symbols;
    Alcotest.test_case "directive text" `Quick test_directive_text;
    Alcotest.test_case "lowering: sections and bb maps equal the reference on relink programs 0-3"
      `Quick test_lowering_reference_relink;
    QCheck_alcotest.to_alcotest lowering_reference_law;
    Alcotest.test_case "compile allocation bounded on relink program 0" `Quick
      test_compile_allocation;
  ]
