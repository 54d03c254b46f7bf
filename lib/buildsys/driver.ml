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

(* The executor pool models the distributed backend of a
   warehouse-scale build (paper §3.1): wide enough that codegen wall
   time is dominated by the longest unit, not by queueing. *)
let make_env ~ctx () =
  {
    obj_cache = Cache.create ();
    layout_cache = Cache.create ();
    workers = 256;
    mem_limit = None;
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

(* Function digests are memoized by physical function, so the Phase-4
   rebuild re-digests nothing: IR is immutable between builds, and the
   optimized build compiles the metadata build's own functions. The
   keys are weak (an ephemeron table), so an entry lives exactly as
   long as its function; the memo stays process-wide rather than in the
   env because callers such as benchmarks compute unit keys with no env.
   Key computation fans out across units on the pool, so the memo is
   guarded by a mutex (writes are rare after the first build). *)
module FuncMemo = Ephemeron.K1.Make (struct
  type t = Ir.Func.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let func_digests : Support.Digesting.t FuncMemo.t = FuncMemo.create 1024

let func_digests_m = Mutex.create ()

let func_digest f =
  Mutex.lock func_digests_m;
  match FuncMemo.find func_digests f with
  | d ->
    Mutex.unlock func_digests_m;
    d
  | exception Not_found ->
    Mutex.unlock func_digests_m;
    let d = func_digest_uncached f in
    Mutex.lock func_digests_m;
    FuncMemo.replace func_digests f d;
    Mutex.unlock func_digests_m;
    d

(* The flags part of a unit key: the bytes of
   [Printf.sprintf "unit=%s|rodata=%d|data=%d|bbmap=%b|pgo=%b|sites=%s"],
   the sites being this unit's prefetch sites as [f#b], joined by
   [;]. *)
let rec feed_sites st (u : Ir.Cunit.t) ~first = function
  | [] -> ()
  | (f, b) :: rest ->
    if Ir.Cunit.mem u f then begin
      if not first then Support.Digesting.add_char st ';';
      Support.Digesting.add_string st f;
      Support.Digesting.add_char st '#';
      Support.Digesting.add_int st b;
      feed_sites st u ~first:false rest
    end
    else feed_sites st u ~first rest

let feed_flags st (u : Ir.Cunit.t) (options : Codegen.options) =
  let module D = Support.Digesting in
  D.add_string st "unit=";
  D.add_string st u.name;
  D.add_string st "|rodata=";
  D.add_int st u.rodata;
  D.add_string st "|data=";
  D.add_int st u.data;
  D.add_string st "|bbmap=";
  D.add_string st (string_of_bool options.emit_bb_addr_map);
  D.add_string st "|pgo=";
  D.add_string st (string_of_bool options.pgo_layout);
  D.add_string st "|sites=";
  feed_sites st u ~first:true options.prefetch_sites

(* The plans part: the text of the plans naming this unit's
   functions. *)
let rec feed_plans st (u : Ir.Cunit.t) = function
  | [] -> ()
  | (p : Codegen.Directive.func_plan) :: rest ->
    if Ir.Cunit.mem u p.func then Codegen.Directive.feed st p;
    feed_plans st u rest

(* The key digests the hex of each of its parts in turn: the tool, each
   function, the flags and the plans. Only directives and prefetch
   sites naming this unit's functions enter it: a plan for a foreign
   unit must not invalidate it. The parts stream into their digests,
   so a key builds no string. *)
let unit_action_key (u : Ir.Cunit.t) (options : Codegen.options) =
  let module D = Support.Digesting in
  let st = D.init () in
  D.add_hex st tool_digest;
  List.iter (fun f -> D.add_hex st (func_digest f)) u.funcs;
  let part = D.init () in
  feed_flags part u options;
  D.add_hex st (D.finish part);
  let part = D.init () in
  feed_plans part u options.plans;
  D.add_hex st (D.finish part);
  D.finish st

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
       counters) mutates on the coordinator only, so the accounting is
       identical for any pool width. Reads are digest verified against
       the digest each object carries: an entry that rotted in storage
       is evicted and recompiled from source, exactly like any other
       miss. *)
    let pending : (Support.Digesting.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let miss_units = ref [] and num_miss = ref 0 in
    let slots =
      Obs.Recorder.with_span r "cache_pass" @@ fun () ->
      Array.init n (fun i ->
          let key = keys.(i) in
          if Hashtbl.mem pending key then Dup
          else
            let outcome =
              Cache.find_verified env.obj_cache key ~digest_of:(fun (o : Objfile.File.t) ->
                  o.digest)
            in
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
                 Cache.add
                   ~digest_of:(fun (o : Objfile.File.t) -> o.digest)
                   env.obj_cache keys.(i) ~size:Objfile.File.total_size obj;
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
      Linker.Link.link ~ctx:env.ctx ~options:link_options
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
