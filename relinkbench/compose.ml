(* One relink, two ways. [pipeline] is the user's call,
   Propeller.Pipeline.run. [relink] composes the same relink from each
   layer's public functions, in the order Pipeline.run_round and the
   fault-free path of Buildsys.Driver.build call them, with a span
   around every call; the golden digest check proves both build the
   same image. *)

type relink = {
  opt : Linker.Binary.t;  (** The optimized ("PO") image. *)
  meta : Linker.Binary.t;  (** The metadata ("PM") image that was profiled. *)
  obj_misses : int;  (** Objects compiled, over both builds. *)
  layout_misses : int;  (** Functions laid out from scratch by WPA. *)
}

let pipeline ~config env ~program ~name =
  let r = Propeller.Pipeline.run ~config ~env ~program ~name () in
  {
    opt = Propeller.Pipeline.optimized_binary r;
    meta = r.metadata_build.binary;
    obj_misses = r.metadata_build.cache_misses + r.optimized_build.cache_misses;
    layout_misses = r.wpa.layout_cache_misses;
  }

(* Buildsys.Driver verifies cache reads against a structural object
   digest it keeps private; this is the same digest, memoized by
   physical identity as Buildsys.Driver memoizes it, so a verified read
   costs here what it costs there. *)
module Phys = Hashtbl.Make (struct
  type t = Objfile.File.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let obj_digests : Support.Digesting.t Phys.t = Phys.create 256

let obj_digest (o : Objfile.File.t) =
  match Phys.find_opt obj_digests o with
  | Some d -> d
  | None ->
    let d =
      Support.Digesting.of_string
        (String.concat "|"
           (o.name :: o.unit_name
           :: string_of_bool o.has_inline_asm
           :: List.map
                (fun (s : Objfile.Section.t) ->
                  Printf.sprintf "%s:%s:%d:%s:%d" s.name
                    (Objfile.Section.kind_to_string s.kind)
                    s.align
                    (Option.value s.symbol ~default:"")
                    (Objfile.Section.size s))
                o.sections))
    in
    Phys.add obj_digests o d;
    d

type build = { binary : Linker.Binary.t; misses : int }

let build (env : Buildsys.Driver.env) ~name ~program ~codegen_options ~link_options =
  Spans.span ~layer:"bench" ~name:("build:" ^ name) @@ fun () ->
  let ctx = env.ctx in
  let pool = ctx.Support.Ctx.pool in
  let units = Array.of_list (Ir.Program.units program) in
  let n = Array.length units in
  let keys =
    Spans.span ~layer:"buildsys" ~name:"digest" (fun () ->
        Support.Pool.map_array pool n (fun i ->
            Buildsys.Driver.unit_action_key units.(i) codegen_options))
  in
  let cached =
    Spans.span ~layer:"buildsys" ~name:"cache" (fun () ->
        Array.map
          (fun key ->
            match Buildsys.Cache.find_verified env.obj_cache key ~digest_of:obj_digest with
            | `Hit obj -> Some obj
            | `Miss | `Corrupt -> None)
          keys)
  in
  let missed =
    Array.of_list (List.filter (fun i -> Option.is_none cached.(i)) (List.init n Fun.id))
  in
  let compiled =
    Spans.span ~layer:"codegen" ~name:"compile" (fun () ->
        Support.Pool.map_array pool (Array.length missed) (fun j ->
            Codegen.compile_unit ~ctx codegen_options units.(missed.(j))))
  in
  let objs, actions =
    Spans.span ~layer:"buildsys" ~name:"cache" (fun () ->
        let objs = Array.copy cached in
        Array.iteri
          (fun j i ->
            Buildsys.Cache.add ~digest_of:obj_digest env.obj_cache keys.(i)
              ~size:Objfile.File.total_size compiled.(j);
            objs.(i) <- Some compiled.(j))
          missed;
        let objs = Array.to_list (Array.map Option.get objs) in
        let actions =
          Array.to_list
            (Array.map
               (fun i ->
                 let code_bytes = Ir.Cunit.code_bytes units.(i) in
                 {
                   Buildsys.Scheduler.label = units.(i).Ir.Cunit.name;
                   cpu_seconds = Buildsys.Costmodel.codegen_seconds ~code_bytes;
                   peak_mem_bytes = Buildsys.Costmodel.codegen_mem ~code_bytes;
                 })
               missed)
        in
        (objs, actions))
  in
  let (_ : Buildsys.Scheduler.result) =
    Spans.span ~layer:"buildsys" ~name:"schedule" (fun () ->
        Buildsys.Scheduler.schedule ?mem_limit:env.mem_limit ~workers:env.workers actions)
  in
  let outcome =
    Spans.span ~layer:"linker" ~name:"link" (fun () ->
        Linker.Link.link ~ctx ~options:link_options ~name ~entry:(Ir.Program.main program) objs)
  in
  let misses = Array.length missed in
  Spans.count "buildsys.cache_hits" (float_of_int (n - misses));
  Spans.count "buildsys.cache_misses" (float_of_int misses);
  Spans.count "codegen.compile_calls" (float_of_int misses);
  Spans.count "linker.link_calls" 1.0;
  Spans.count "linker.relax_iters" (float_of_int outcome.stats.relax_iters);
  Spans.count "linker.input_sections" (float_of_int outcome.stats.num_input_sections);
  { binary = outcome.binary; misses }

let relink ~(config : Propeller.Pipeline.config) (env : Buildsys.Driver.env) ~program ~name =
  let ctx = env.ctx in
  let cg_meta, ld_meta = Propeller.Pipeline.metadata_options in
  let pm =
    build env ~name:(name ^ ".pm1") ~program ~codegen_options:cg_meta ~link_options:ld_meta
  in
  (* Phase 3: profile the metadata image, then whole-program analysis. *)
  let image =
    Spans.span ~layer:"exec" ~name:"image_build" (fun () -> Exec.Image.build program pm.binary)
  in
  let profile = Perfmon.Lbr.create_profile () in
  let collector = Perfmon.Lbr.collector_state config.lbr profile in
  let stats =
    Spans.span ~layer:"exec" ~name:"interp" (fun () ->
        Spans.drained ~layer:"perfmon" ~name:"lbr" (Perfmon.Lbr.consume collector) (fun drain ->
            Exec.Interp.run_tape ~ctx image config.profile_run ~drain))
  in
  Spans.count "exec.blocks_executed" (float_of_int stats.blocks_executed);
  Spans.count "perfmon.lbr_records" (float_of_int profile.num_records);
  let wpa =
    Spans.span ~layer:"wpa" ~name:"analyze" (fun () ->
        Propeller.Wpa.analyze ~config:config.wpa ~ctx ~layout_cache:env.layout_cache
          ~profile:(Propeller.Wpa.Lbr profile) ~binary:pm.binary ())
  in
  Spans.count "wpa.hot_funcs" (float_of_int wpa.hot_funcs);
  Spans.count "wpa.layout_cache_hits" (float_of_int wpa.layout_cache_hits);
  Spans.count "wpa.layout_cache_misses" (float_of_int wpa.layout_cache_misses);
  (* Phase 4: regenerate hot objects, reuse cold ones, relink. *)
  let cg_opt, ld_opt = Propeller.Pipeline.optimize_options ~hugepages:config.hugepages wpa in
  let po = build env ~name:(name ^ ".po1") ~program ~codegen_options:cg_opt ~link_options:ld_opt in
  {
    opt = po.binary;
    meta = pm.binary;
    obj_misses = pm.misses + po.misses;
    layout_misses = wpa.layout_cache_misses;
  }
