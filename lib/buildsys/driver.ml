type env = {
  obj_cache : Objfile.File.t Cache.t;
  layout_cache : (Codegen.Directive.func_plan * float) Cache.t;
  workers : int;
  mem_limit : int option;
  ctx : Support.Ctx.t;
  last_good : (string, Objfile.File.t) Hashtbl.t;
  corrupted : (Support.Digesting.t, unit) Hashtbl.t;
}

let recorder env = env.ctx.Support.Ctx.recorder

let pool env = env.ctx.Support.Ctx.pool

(* Default pool models the distributed backend of a warehouse-scale
   build (paper §3.1): wide enough that codegen wall time is dominated
   by the longest unit, not by queueing. *)
let make_env ?(workers = 256) ?mem_limit ?ctx () =
  let ctx = match ctx with Some c -> c | None -> Support.Ctx.default () in
  {
    obj_cache = Cache.create ();
    layout_cache = Cache.create ();
    workers;
    mem_limit;
    ctx;
    last_good = Hashtbl.create 64;
    corrupted = Hashtbl.create 64;
  }

type fault_stats = {
  injected : int;
  retried : int;
  degraded : int;
  fallbacks : int;
  corrupt_evicted : int;
  stragglers : int;
  speculated : int;
  backoff_seconds : float;
}

type result = {
  binary : Linker.Binary.t;
  objs : Objfile.File.t list;
  cache_hits : int;
  cache_misses : int;
  wall_seconds : float;
  cpu_seconds : float;
  codegen_report : Scheduler.result;
  link_stats : Linker.Link.stats;
  faults : fault_stats;
}

let tool_digest = Support.Digesting.of_string "propeller-backend-v1"

(* A function's digest input is its printed IR ([Ir.Func.pp]'s bytes,
   streamed by [Ir.Func.feed]) then its exact PGO estimates as float
   bit patterns in block order: [pp] leaves them out, but
   [Codegen.intra_order] lays blocks out by them. *)
let func_digest_uncached (f : Ir.Func.t) =
  let st = Support.Digesting.init () in
  Ir.Func.feed st f;
  let add p = Support.Digesting.add_int64_le st (Int64.bits_of_float p) in
  Array.iter
    (fun (blk : Ir.Block.t) ->
      match blk.term with
      | Ir.Term.Branch { pgo_prob; _ } -> add pgo_prob
      | Ir.Term.Switch { pgo_probs; _ } -> Array.iter add pgo_probs
      | Ir.Term.Jump _ | Ir.Term.Return -> ())
    f.blocks;
  Support.Digesting.finish st

(* Function digests are memoized structurally: units are immutable
   between builds, so the Phase-4 rebuild re-digests nothing. Key
   computation fans out across units on the pool, so the memo is
   guarded by a mutex (writes are rare after the first build). *)
let func_digests : (Ir.Func.t, Support.Digesting.t) Hashtbl.t =
  Hashtbl.create 1024

let func_digests_m = Mutex.create ()

let func_digest f =
  Mutex.lock func_digests_m;
  let cached = Hashtbl.find_opt func_digests f in
  Mutex.unlock func_digests_m;
  match cached with
  | Some d -> d
  | None ->
    let d = func_digest_uncached f in
    Mutex.lock func_digests_m;
    Hashtbl.replace func_digests f d;
    Mutex.unlock func_digests_m;
    d

let unit_action_key (u : Ir.Cunit.t) (options : Codegen.options) =
  (* Only directives and prefetch sites naming this unit's functions
     enter the key: a plan for a foreign unit must not invalidate it. *)
  let plans =
    List.filter
      (fun (p : Codegen.Directive.func_plan) -> Ir.Cunit.mem u p.func)
      options.plans
  in
  let sites =
    List.filter (fun (f, _) -> Ir.Cunit.mem u f) options.prefetch_sites
  in
  let flags =
    Printf.sprintf "unit=%s|rodata=%d|data=%d|bbmap=%b|pgo=%b|sites=%s"
      u.name u.rodata u.data options.emit_bb_addr_map options.pgo_layout
      (String.concat ";"
         (List.map (fun (f, b) -> Printf.sprintf "%s#%d" f b) sites))
  in
  Support.Digesting.concat
    ((tool_digest :: List.map func_digest u.funcs)
    @ [
        Support.Digesting.of_string flags;
        Support.Digesting.of_string (Codegen.Directive.to_text plans);
      ])

(* Structural content digest of a stored object, recorded at cache-add
   time and re-checked by verified reads. Only has to be deterministic
   and sensitive to the object's shape — the rot we detect is a flipped
   *stored* digest (Cache.corrupt), not adversarial tampering. *)
let obj_digest_uncached (o : Objfile.File.t) =
  let module D = Support.Digesting in
  let st = D.init () in
  let str sep s = D.add_char st sep; D.add_string st s in
  let int sep n = D.add_char st sep; D.add_int st n in
  D.add_string st o.name;
  str '|' o.unit_name;
  str '|' (string_of_bool o.has_inline_asm);
  List.iter
    (fun (s : Objfile.Section.t) ->
      str '|' s.name;
      str ':' (Objfile.Section.kind_to_string s.kind);
      int ':' s.align;
      str ':' (Option.value s.symbol ~default:"");
      int ':' (Objfile.Section.size s))
    o.sections;
  D.finish st

(* Objects are immutable once built, so their digest is a pure function
   of physical identity — memoized, the verified read of every warm
   cache hit skips the string rebuild. Keyed by physical equality
   (structural hash, [==] compare): a recompiled object is a new key and
   re-digests, and [Cache.corrupt] flips the *stored* digest, so rot
   detection still compares against a freshly correct value. Sequential
   passes only (cache pass / commit pass), hence no lock. *)
module PhysObjTbl = Hashtbl.Make (struct
  type t = Objfile.File.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let obj_digests : Support.Digesting.t PhysObjTbl.t = PhysObjTbl.create 256

let obj_digest (o : Objfile.File.t) =
  match PhysObjTbl.find_opt obj_digests o with
  | Some d -> d
  | None ->
    let d = obj_digest_uncached o in
    PhysObjTbl.add obj_digests o d;
    d

(* Per-unit outcome of the sequential cache pass. [Dup] marks a unit
   whose key is already being compiled for an earlier unit this build:
   its lookup is deferred to the commit pass, where it hits — exactly
   the accounting the one-pass sequential build produced. *)
type slot =
  | Hit of Objfile.File.t
  | Miss of int  (* index into the compiled-misses array *)
  | Dup

(* Commit one domain-lane span per pool worker that ran tasks during
   the phase, so the Chrome trace shows the fan-out (lane = tid 2+w;
   lane 1 keeps the sequential stack spans). *)
let emit_pool_spans r pool ~label ~start ~duration =
  let st = Support.Pool.stats pool in
  let steals = st.steals in
  Array.iteri
    (fun w tasks ->
      if tasks > 0 then
        Obs.Recorder.emit_span r label ~tid:(2 + w) ~start ~duration
          ~args:
            [
              ("domain", Obs.Trace.Int w);
              ("tasks", Obs.Trace.Int tasks);
              ("steals", Obs.Trace.Int (if w = 0 then steals else 0));
            ])
    st.tasks_per_worker

let build env ~name ~program ~codegen_options ~link_options =
  let r = recorder env in
  let pool = pool env in
  (* Fault decisions are pure functions of (plan, identity), never of
     schedule state, so every count and every byte below replays
     identically for the same plan at any [--jobs] width. *)
  let plan =
    match env.ctx.Support.Ctx.faults with
    | Some p when Faultsim.Plan.is_active p -> Some p
    | Some _ | None -> None
  in
  Obs.Recorder.with_span r ("build:" ^ name) @@ fun () ->
  let hits = ref 0 and misses = ref 0 in
  let actions = ref [] in
  let injected = ref 0
  and retried = ref 0
  and degraded = ref 0
  and fallbacks = ref 0
  and corrupt_evicted = ref 0
  and backoff_total = ref 0.0 in
  (* Fallback objects of units whose action persistently failed this
     build, keyed by action key so a Dup of the same key resolves to
     the same bytes. Never committed to the cache: the key must stay a
     miss so a later fault-free build recompiles and recovers. *)
  let fallback_keys : (Support.Digesting.t, Objfile.File.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let objs, codegen_report =
    Obs.Recorder.with_span r "codegen" @@ fun () ->
    Support.Pool.reset_stats pool;
    let phase_start = Obs.Recorder.now r in
    let units = Array.of_list (Ir.Program.units program) in
    let n = Array.length units in
    (* Action keys: pure per-unit digesting, fanned out on the pool. *)
    let keys =
      Obs.Recorder.with_span r "digest" @@ fun () ->
      Support.Pool.map_array pool n (fun i -> unit_action_key units.(i) codegen_options)
    in
    (* Sequential cache pass in unit order: all Cache state (hit/miss
       counters, LRU stamps) mutates on the coordinator only, so the
       accounting is identical for any pool width. Reads are digest
       verified: an entry that rotted in storage is evicted and
       recompiled from source, exactly like any other miss. *)
    let pending : (Support.Digesting.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let miss_units = ref [] and num_miss = ref 0 in
    let slots =
      Obs.Recorder.with_span r "cache_pass" @@ fun () ->
      Array.init n (fun i ->
          let key = keys.(i) in
          if Hashtbl.mem pending key then Dup
          else
            let outcome = Cache.find_verified env.obj_cache key ~digest_of:obj_digest in
            (match outcome with
            | `Corrupt ->
              incr corrupt_evicted;
              Obs.Recorder.flight_note r "fault.cache_corrupt" units.(i).Ir.Cunit.name
            | `Hit _ | `Miss -> ());
            match outcome with
            | `Hit obj -> Hit obj
            | `Miss | `Corrupt ->
              Hashtbl.replace pending key ();
              miss_units := units.(i) :: !miss_units;
              let s = Miss !num_miss in
              incr num_miss;
              s)
    in
    let miss_units = Array.of_list (List.rev !miss_units) in
    (* Backend fan-out: compile every missed unit across the pool. *)
    let compiled =
      Obs.Recorder.with_span r "compile" @@ fun () ->
      Support.Pool.map_array pool (Array.length miss_units) (fun j ->
          Codegen.compile_unit ~ctx:env.ctx codegen_options miss_units.(j))
    in
    (* Commit pass, unit order: store artifacts, settle dup lookups,
       account retries/fallbacks, and collect scheduler actions —
       deterministic by construction. *)
    let objs =
      Array.to_list
        (Array.mapi
           (fun i slot ->
             let u = units.(i) in
             let settle obj =
               Hashtbl.replace env.last_good u.Ir.Cunit.name obj;
               obj
             in
             match slot with
             | Hit obj ->
               incr hits;
               settle obj
             | Dup -> (
               match Cache.find env.obj_cache keys.(i) with
               | Some obj ->
                 incr hits;
                 settle obj
               | None -> (
                 match Hashtbl.find_opt fallback_keys keys.(i) with
                 | Some obj -> obj (* same degraded bytes as the earlier index *)
                 | None -> assert false (* committed by an earlier index *)))
             | Miss j ->
               incr misses;
               let persistent_fail =
                 match plan with
                 | Some p ->
                   Faultsim.Plan.persistent p ~unit_name:u.Ir.Cunit.name
                   && Hashtbl.mem env.last_good u.Ir.Cunit.name
                 | None -> false
               in
               if persistent_fail then begin
                 (* Every attempt burned; degrade to the last object
                    this unit successfully built (the cached base
                    object of the fault-free link). *)
                 let p = Option.get plan in
                 let burned = p.Faultsim.Plan.max_attempts in
                 injected := !injected + burned;
                 retried := !retried + (burned - 1);
                 for retry = 1 to burned - 1 do
                   backoff_total :=
                     !backoff_total +. Faultsim.Plan.backoff_seconds p ~retry
                 done;
                 incr fallbacks;
                 incr degraded;
                 Obs.Recorder.flight_note r "fault.fallback" u.Ir.Cunit.name;
                 let obj = Hashtbl.find env.last_good u.Ir.Cunit.name in
                 Hashtbl.replace fallback_keys keys.(i) obj;
                 obj
               end
               else begin
                 (match plan with
                 | Some p ->
                   (* Transient failures: replay until an attempt
                      succeeds (the plan forces success at the last
                      attempt), waiting out the exponential backoff
                      between attempts. Bytes are unaffected. *)
                   let attempts =
                     Faultsim.Plan.attempts_for p ~key:u.Ir.Cunit.name
                   in
                   if attempts > 1 then begin
                     injected := !injected + (attempts - 1);
                     retried := !retried + (attempts - 1);
                     for retry = 1 to attempts - 1 do
                       backoff_total :=
                         !backoff_total +. Faultsim.Plan.backoff_seconds p ~retry
                     done
                   end
                 | None -> ());
                 let obj = compiled.(j) in
                 Cache.add ~digest_of:obj_digest env.obj_cache keys.(i)
                   ~size:Objfile.File.total_size obj;
                 (match plan with
                 | Some p
                   when (not (Hashtbl.mem env.corrupted keys.(i)))
                        && Faultsim.Plan.corrupts p
                             ~key:(Support.Digesting.to_hex keys.(i)) ->
                   (* Rot the entry once per key: the next verified
                      read detects the mismatch, evicts, recompiles —
                      and the recompiled store stays clean. *)
                   Hashtbl.replace env.corrupted keys.(i) ();
                   ignore (Cache.corrupt env.obj_cache keys.(i));
                   incr injected
                 | Some _ | None -> ());
                 let code_bytes = Ir.Cunit.code_bytes u in
                 let a =
                   {
                     Scheduler.label = u.Ir.Cunit.name;
                     cpu_seconds = Costmodel.codegen_seconds ~code_bytes;
                     peak_mem_bytes = Costmodel.codegen_mem ~code_bytes;
                   }
                 in
                 Obs.Recorder.observe r "buildsys.action.cpu_seconds" a.cpu_seconds;
                 actions := a :: !actions;
                 settle obj
               end)
           slots)
    in
    let report =
      Obs.Recorder.with_span r "schedule" @@ fun () ->
      Scheduler.schedule ?mem_limit:env.mem_limit ?faults:plan ~workers:env.workers
        (List.rev !actions)
    in
    injected := !injected + report.stragglers;
    Obs.Recorder.advance r report.wall_seconds;
    Obs.Recorder.span_args r
      [
        ("actions", Obs.Trace.Int report.num_actions);
        ("cache_hits", Obs.Trace.Int !hits);
        ("workers", Obs.Trace.Int env.workers);
        ("jobs", Obs.Trace.Int (Support.Pool.jobs pool));
      ];
    emit_pool_spans r pool ~label:"codegen:domain" ~start:phase_start
      ~duration:report.wall_seconds;
    (objs, report)
  in
  let outcome =
    Obs.Recorder.with_span r "link" @@ fun () ->
    let o =
      Linker.Link.link ~ctx:(Support.Ctx.with_recorder env.ctx r) ~options:link_options
        ~name ~entry:(Ir.Program.main program) objs
    in
    Obs.Recorder.advance r o.stats.cpu_seconds;
    o
  in
  Obs.Recorder.incr_counter r "buildsys.builds";
  Obs.Recorder.add_counter r "buildsys.cache.hits" !hits;
  Obs.Recorder.add_counter r "buildsys.cache.misses" !misses;
  Obs.Recorder.set_gauge r "buildsys.cache.stored_bytes"
    (float_of_int (Cache.stored_bytes env.obj_cache));
  Obs.Recorder.counter_sample r "buildsys.cache"
    [
      ("hits", float_of_int (Cache.hits env.obj_cache));
      ("misses", float_of_int (Cache.misses env.obj_cache));
    ];
  let faults =
    {
      injected = !injected;
      retried = !retried;
      degraded = !degraded;
      fallbacks = !fallbacks;
      corrupt_evicted = !corrupt_evicted;
      stragglers = codegen_report.stragglers;
      speculated = codegen_report.speculated;
      backoff_seconds = !backoff_total;
    }
  in
  (* Fault telemetry only exists when a plan is in force: the fault-free
     path must export byte-identical metrics to the pre-faultsim tree
     (bench baselines compare whole exports). *)
  (match plan with
  | None -> ()
  | Some _ ->
    Obs.Recorder.add_counter r "fault.injected" faults.injected;
    Obs.Recorder.add_counter r "fault.retried" faults.retried;
    Obs.Recorder.add_counter r "fault.degraded" faults.degraded;
    Obs.Recorder.add_counter r "fault.fallbacks" faults.fallbacks;
    Obs.Recorder.add_counter r "fault.cache_corrupt" faults.corrupt_evicted;
    Obs.Recorder.add_counter r "fault.stragglers" faults.stragglers;
    Obs.Recorder.add_counter r "fault.speculated" faults.speculated;
    if faults.backoff_seconds > 0.0 then
      Obs.Recorder.observe r "fault.backoff_seconds" faults.backoff_seconds);
  {
    binary = outcome.binary;
    objs;
    cache_hits = !hits;
    cache_misses = !misses;
    wall_seconds = codegen_report.wall_seconds +. outcome.stats.cpu_seconds;
    cpu_seconds = codegen_report.cpu_seconds +. outcome.stats.cpu_seconds;
    codegen_report;
    link_stats = outcome.stats;
    faults;
  }
