open Testutil

(* Pinned outputs of every address-to-block reader. Each digest covers
   one family of readers on real programs; a change to how an image's
   address index is built or searched must reproduce all of them. *)

(* --- per-byte resolution ------------------------------------------ *)

(* The metadata image of relink-family program [k], linked with the
   options the metadata phase of a relink uses. *)
let metadata_image k =
  let program = relink_family_program k in
  let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
  let objs = Codegen.compile_program cg_meta program in
  (Linker.Link.link ~options:ld_meta ~name:"pin" ~entry:(Ir.Program.main program) objs).binary

(* Run-length encode one lookup over [lo, hi): [same prev cur] says
   whether [cur] continues the run of [prev] one byte on, [show]
   renders the value that starts a run. *)
let runs b ~lo ~hi ~label ~lookup ~same ~show =
  Printf.bprintf b "%s\n" label;
  let prev = ref None in
  for addr = lo to hi - 1 do
    let cur = lookup addr in
    match !prev with
    | Some p when same p cur -> prev := Some cur
    | Some _ | None ->
      Printf.bprintf b "%d %s\n" addr (show cur);
      prev := Some cur
  done

(* The same block, or none, at consecutive bytes. *)
let same_block p c =
  match (p, c) with Some x, Some y -> x == y | None, None -> true | _ -> false

let resolution_same (p : Inspect.Resolve.resolution) (c : Inspect.Resolve.resolution) =
  match (p, c) with
  | Code a, Code b ->
    String.equal a.func b.func && a.block = b.block && a.block_addr = b.block_addr
    && a.block_size = b.block_size && String.equal a.section b.section
    && a.section_symbol = b.section_symbol && a.fragment = b.fragment
    && b.offset = a.offset + 1
  | Padding a, Padding b -> a.prev = b.prev && a.next = b.next
  | Noncode a, Noncode b -> String.equal a b
  | Outside, Outside -> true
  | (Code _ | Padding _ | Noncode _ | Outside), _ -> false

let resolution_show : Inspect.Resolve.resolution -> string = function
  | Code l ->
    Printf.sprintf "code %s#%d @%d+%d off=%d %s %s %s" l.func l.block l.block_addr l.block_size
      l.offset l.section
      (Option.value ~default:"-" l.section_symbol)
      (Inspect.Resolve.fragment_to_string l.fragment)
  | Padding { prev; next } ->
    Printf.sprintf "pad %s %s" (Option.value ~default:"-" prev) (Option.value ~default:"-" next)
  | Noncode s -> "noncode " ^ s
  | Outside -> "outside"

(* Every byte of the text range, 16 bytes either side, through the
   binary's own lookup, the inspect resolver and the DCFG's address-map
   index — the known miss next to zero-size blocks included. *)
let per_byte_resolution k =
  let binary = metadata_image k in
  let resolver = Inspect.Resolve.create binary in
  let dcfg = Propeller.Dcfg.build ~profile:(Perfmon.Lbr.create_profile ()) ~binary in
  let lo = binary.text_start - 16 and hi = binary.text_end + 16 in
  let b = Buffer.create (1 lsl 20) in
  Printf.bprintf b "image %d %d-%d\n" k binary.text_start binary.text_end;
  runs b ~lo ~hi ~label:"binary" ~lookup:(Linker.Binary.find_block_by_addr binary)
    ~same:same_block
    ~show:(function
      | Some (bi : Linker.Binary.block_info) ->
        Printf.sprintf "%s#%d @%d+%d" bi.func bi.block bi.addr bi.size
      | None -> "none");
  runs b ~lo ~hi ~label:"resolve" ~lookup:(Inspect.Resolve.resolve resolver)
    ~same:resolution_same ~show:resolution_show;
  runs b ~lo ~hi ~label:"dcfg" ~lookup:(Propeller.Dcfg.find_block dcfg)
    ~same:same_block
    ~show:(function
      | Some (m : Propeller.Dcfg.mblock) -> Printf.sprintf "%s#%d @%d+%d" m.owner m.bb m.lo m.msize
      | None -> "none");
  Buffer.contents b

(* --- BOLT rewrites ------------------------------------------------- *)

(* [propeller bolt]'s BM build and profile at 40 requests, rewritten
   under both option sets. *)
let bolt_digests name =
  let spec = { (Option.get (Progen.Suite.by_name name)) with Progen.Spec.requests = 40 } in
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let bm =
    Buildsys.Driver.build env ~name:(spec.name ^ ".bm") ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  let _, profile = run_with_profile ~requests:spec.requests program bm.binary in
  let is_asm f =
    match Ir.Program.find_func program f with
    | Some fn -> fn.Ir.Func.attrs.has_inline_asm
    | None -> false
  in
  List.map
    (fun (label, options) ->
      let r =
        Boltsim.Driver.optimize ~options ~profile ~binary:bm.binary ~is_asm
          ~hazards:Boltsim.Driver.no_hazards ~name:spec.name ()
      in
      Printf.sprintf "%s %s %s rewrote=%d skipped=%d" name label
        (Support.Digesting.to_hex (Linker.Binary.image_digest r.binary))
        r.rewritten_funcs r.skipped_funcs)
    [ ("perf", Boltsim.Driver.perf_options); ("fast", Boltsim.Driver.fast_options) ]

(* --- inspect views -------------------------------------------------- *)

(* The four JSON views [propeller inspect] prints for 505.mcf at 40
   requests, with the command's default variants. *)
let inspect_views () =
  let spec = { (Option.get (Progen.Suite.by_name "505.mcf")) with Progen.Spec.requests = 40 } in
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let base = (Propeller.Pipeline.baseline_build ~env ~program ~name:spec.name).binary in
  let result =
    Propeller.Pipeline.run ~config:(Propeller.Pipeline.config_of_spec spec) ~env ~program
      ~name:spec.name ()
  in
  let po = Propeller.Pipeline.optimized_binary result in
  let profile binary = snd (run_with_profile ~requests:spec.requests program binary) in
  let po_profile = profile po in
  [
    Inspect.Annotate.to_json (Inspect.Annotate.analyze ~binary:po ~profile:po_profile);
    Inspect.Size.to_json (Inspect.Size.measure po);
    Inspect.Paths.to_json
      (Inspect.Paths.extract ~max_paths_per_func:10 ~max_len:64
         (Propeller.Dcfg.build_of_blocks ~profile:po_profile ~binary:po));
    Inspect.Diff.to_json (Inspect.Diff.compare ~profile:(profile base) base po);
  ]
  |> List.map Obs.Json.to_string

let md5 s = Digest.to_hex (Digest.string s)

let test_pinned_lookups () =
  check ts "per-byte resolution, relink-family metadata images 0-3"
    "b190e92bbfca07974b55dcd24287f442"
    (md5 (String.concat "" (List.map per_byte_resolution [ 0; 1; 2; 3 ])));
  check ts "BOLT rewrites of 505.mcf and 531.deepsjeng"
    "d73563583141fdb9106c8c7ed94a0016"
    (md5 (String.concat "\n" (List.concat_map bolt_digests [ "505.mcf"; "531.deepsjeng" ])));
  check ts "inspect JSON views of 505.mcf"
    "4ac640b92b1c3e6938adb56d1e184c6b" (md5 (String.concat "\n" (inspect_views ())))

let suite =
  [ Alcotest.test_case "pinned address lookups on real programs" `Quick test_pinned_lookups ]
