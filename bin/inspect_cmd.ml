(* propeller inspect: binary introspection and profile annotation.

     propeller inspect annotate -b 505.mcf --json   LBR samples on the final layout
     propeller inspect size -b 505.mcf              Bloaty-style bytes (paper Fig 6)
     propeller inspect paths -b 505.mcf             folded hot paths (flamegraph.pl)
     propeller inspect diff -b 505.mcf              layout diff, baseline vs propeller *)

open Cmdliner

type variant = Base | Pm | Po

type images = {
  ctx : Support.Ctx.t;
  program : Ir.Program.t;
  config : Propeller.Pipeline.config;
  base : Linker.Binary.t;
  pm : Linker.Binary.t;
  po : Linker.Binary.t;
}

let build_images benchmark requests source (common : Cli.common) quiet =
  let ctx = Cli.context common in
  let spec = Cli.lookup_spec ~benchmark ~requests in
  if not quiet then Printf.printf "running pipeline on %s...\n%!" spec.name;
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.name in
  let config = { (Propeller.Pipeline.config_of_spec spec) with profile_source = source } in
  let result = Propeller.Pipeline.run ~config ~env ~program ~name:spec.name () in
  Cli.export ctx.Support.Ctx.recorder common;
  {
    ctx;
    program;
    config;
    base = base.binary;
    pm = result.metadata_build.binary;
    po = Propeller.Pipeline.optimized_binary result;
  }

let binary_of t = function Base -> t.base | Pm -> t.pm | Po -> t.po

(* A fresh deterministic profile of [binary]: the pipeline's own Phase 3
   collection, under the config (and so the profile source) the images
   were built with. *)
let profile_of t binary =
  if
    t.config.profile_source = Perfmon.Source.Sampled
    && Array.length binary.Linker.Binary.bb_addr_map = 0
  then begin
    Printf.eprintf
      "--profile-source sampled needs BB address map metadata to synthesize edge weights; \
       the inspected image has none (use --variant pm)\n";
    exit 2
  end;
  let profile, _, _ = Propeller.Pipeline.profile ~ctx:t.ctx t.config t.program binary in
  profile

(* Shared shape of the four views: build the images (quietly when the
   output is machine-readable), compute the view, emit it. *)
let view name ~doc f extra =
  let run benchmark requests source common extra json out =
    let t = build_images benchmark requests source common (json || out <> None) in
    let to_json, to_text = f t extra in
    Cli.emit ~label:name ~json ~out ~to_json ~to_text
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ Cli.benchmark_term $ Cli.requests_term $ Cli.profile_source_term
      $ Cli.common_term $ extra $ Cli.json_term $ Cli.out_term)

(* Shares the enum plumbing so a typoed --variant gets the same "valid
   values are: ..." usage error as --profile-source. *)
let variant_opt names default docv doc =
  Cli.opt
    (Cli.enum_conv ~what:"variant" [ ("base", Base); ("pm", Pm); ("po", Po) ])
    default names docv doc

let variant =
  variant_opt [ "variant" ] Po "VARIANT"
    "Which linked image to inspect: $(b,base) (PGO+ThinLTO baseline), $(b,pm) (metadata \
     build) or $(b,po) (Propeller-optimized)."

let top n doc = Cli.opt Arg.int n [ "top" ] "N" doc

let annotate_cmd =
  view "annotate"
    ~doc:
      "Project LBR samples onto the final layout: per-block counts, taken vs fall-through \
       exits and mispredict rates."
    (fun t (v, func, top) ->
      let binary = binary_of t v in
      let a = Inspect.Annotate.analyze ~binary ~profile:(profile_of t binary) in
      ( (fun () -> Inspect.Annotate.to_json ?func a),
        fun () -> Inspect.Annotate.to_text ~top ?func a ))
    Term.(
      const (fun v f n -> (v, f, n))
      $ variant
      $ Cli.opt Arg.(some string) None [ "func" ] "NAME" "Restrict the view to one function."
      $ top 10 "Hottest functions shown in text mode.")

let size_cmd =
  view "size"
    ~doc:
      "Bloaty-style byte accounting: per-section and per-function bytes, hot/cold split and \
       metadata overhead (paper Fig 6)."
    (fun t (v, top) ->
      let s = Inspect.Size.measure (binary_of t v) in
      ((fun () -> Inspect.Size.to_json s), fun () -> Inspect.Size.to_text ~top s))
    Term.(const (fun v n -> (v, n)) $ variant $ top 20 "Largest functions shown in text mode.")

let paths_cmd =
  view "paths"
    ~doc:
      "Reconstruct hot control-flow paths from LBR samples as folded stacks \
       (flamegraph.pl-compatible)."
    (fun t (v, max_paths, max_len) ->
      let binary = binary_of t v in
      let dcfg = Propeller.Dcfg.build_of_blocks ~profile:(profile_of t binary) ~binary in
      let p = Inspect.Paths.extract ~max_paths_per_func:max_paths ~max_len dcfg in
      ((fun () -> Inspect.Paths.to_json p), fun () -> Inspect.Paths.to_folded p))
    Term.(
      const (fun v p l -> (v, p, l))
      $ variant
      $ Cli.opt Arg.int 10 [ "max-paths" ] "N" "Paths decomposed per function."
      $ Cli.opt Arg.int 64 [ "max-len" ] "N" "Blocks per path.")

let diff_cmd =
  view "diff"
    ~doc:
      "Compare two linked images: block movement between layouts and hot-branch distance \
       histograms."
    (fun t (from_v, to_v, top) ->
      let a = binary_of t from_v and b = binary_of t to_v in
      let d = Inspect.Diff.compare ~profile:(profile_of t a) a b in
      ((fun () -> Inspect.Diff.to_json d), fun () -> Inspect.Diff.to_text ~top d))
    Term.(
      const (fun a b n -> (a, b, n))
      $ variant_opt [ "from" ] Base "VARIANT" "Image A of the comparison (profile source)."
      $ variant_opt [ "to" ] Po "VARIANT" "Image B of the comparison."
      $ top 10 "Functions with most moved blocks shown in text mode.")

let validate files =
  let bad =
    List.filter
      (fun file ->
        match Cli.parse_file file with
        | Ok _ ->
          Printf.printf "%s: valid JSON\n" file;
          false
        | Error e ->
          Printf.eprintf "%s: %s\n" file e;
          true)
      files
  in
  if bad <> [] then exit 1

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Parse each FILE with the Obs.Json parser; exit non-zero on any failure.")
    Term.(
      const validate
      $ Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"JSON files to validate."))

let cmd =
  Cmd.group
    (Cmd.info "inspect" ~doc:"Binary introspection and profile annotation.")
    [ annotate_cmd; size_cmd; paths_cmd; diff_cmd; validate_cmd ]
