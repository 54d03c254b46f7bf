open Testutil

(* --- Cache -------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Buildsys.Cache.create () in
  let key = Support.Digesting.of_string "k" in
  let calls = ref 0 in
  let compute () =
    incr calls;
    "artifact"
  in
  let v1, hit1 = Buildsys.Cache.find_or_add c key ~size:String.length compute in
  let v2, hit2 = Buildsys.Cache.find_or_add c key ~size:String.length compute in
  check ts "value" "artifact" v1;
  check ts "cached value" "artifact" v2;
  check tb "first is miss" false hit1;
  check tb "second is hit" true hit2;
  check ti "computed once" 1 !calls;
  check ti "hits" 1 (Buildsys.Cache.hits c);
  check ti "misses" 1 (Buildsys.Cache.misses c);
  check ti "stored bytes" 8 (Buildsys.Cache.stored_bytes c);
  check tb "hit rate" true (abs_float (Buildsys.Cache.hit_rate c -. 0.5) < 1e-9)

let test_cache_reset_stats () =
  let c = Buildsys.Cache.create () in
  let key = Support.Digesting.of_string "k" in
  ignore (Buildsys.Cache.find_or_add c key ~size:String.length (fun () -> "x"));
  Buildsys.Cache.reset_stats c;
  check ti "misses zeroed" 0 (Buildsys.Cache.misses c);
  (* Contents survive. *)
  let _, hit = Buildsys.Cache.find_or_add c key ~size:String.length (fun () -> "y") in
  check tb "contents kept" true hit

let test_cache_lru_eviction () =
  let c = Buildsys.Cache.create ~capacity_bytes:10 () in
  let key s = Support.Digesting.of_string s in
  let put k v = Buildsys.Cache.add c (key k) ~size:String.length v in
  put "a" "aaaa";
  put "b" "bbbb";
  (* Touch "a" so "b" is the LRU victim when "c" overflows the store. *)
  check tb "a present" true (Buildsys.Cache.find c (key "a") <> None);
  put "c" "cccc";
  check ti "one eviction" 1 (Buildsys.Cache.evictions c);
  check tb "LRU (b) evicted" false (Buildsys.Cache.mem c (key "b"));
  check tb "recently-used a survives" true (Buildsys.Cache.mem c (key "a"));
  check tb "newcomer c survives" true (Buildsys.Cache.mem c (key "c"));
  check ti "stored bytes tracks survivors" 8 (Buildsys.Cache.stored_bytes c);
  (* An artifact bigger than the whole capacity still stays: the
     just-added key is never its own victim. *)
  put "huge" "xxxxxxxxxxxxxxxxxxxx";
  check tb "oversized newcomer kept" true (Buildsys.Cache.mem c (key "huge"))

let test_cache_replace_same_key () =
  let c = Buildsys.Cache.create () in
  let key = Support.Digesting.of_string "k" in
  Buildsys.Cache.add c key ~size:String.length "aaaa";
  Buildsys.Cache.add c key ~size:String.length "bb";
  check ti "replacement recharges bytes" 2 (Buildsys.Cache.stored_bytes c);
  check ti "one entry" 1 (Buildsys.Cache.num_entries c);
  check Alcotest.(option string) "latest value wins" (Some "bb")
    (Buildsys.Cache.find c key)

(* --- Scheduler ---------------------------------------------------- *)

let action label cpu mem = { Buildsys.Scheduler.label; cpu_seconds = cpu; peak_mem_bytes = mem }

let test_scheduler_single_worker () =
  let r =
    Buildsys.Scheduler.schedule ~workers:1 [ action "a" 2.0 1; action "b" 3.0 2 ]
  in
  check tb "serial makespan" true (abs_float (r.wall_seconds -. 5.0) < 1e-9);
  check tb "total cpu" true (abs_float (r.cpu_seconds -. 5.0) < 1e-9);
  check ti "max mem" 2 r.max_action_mem

let test_scheduler_parallel () =
  let r =
    Buildsys.Scheduler.schedule ~workers:2
      [ action "a" 2.0 1; action "b" 3.0 1; action "c" 1.0 1 ]
  in
  (* LPT: b on w0, a on w1, c on w1 -> makespan 3. *)
  check tb "parallel makespan" true (abs_float (r.wall_seconds -. 3.0) < 1e-9)

let test_scheduler_mem_limit () =
  let r =
    Buildsys.Scheduler.schedule ~mem_limit:100 ~workers:4
      [ action "ok" 1.0 50; action "pig" 1.0 500 ]
  in
  check Alcotest.(list string) "offender flagged" [ "pig" ] r.over_limit

let test_scheduler_empty () =
  let r = Buildsys.Scheduler.schedule ~workers:8 [] in
  check tb "empty wall" true (r.wall_seconds = 0.0);
  check ti "no actions" 0 r.num_actions

let test_scheduler_plan_memo () =
  let actions = [ action "m1" 2.0 1; action "m2" 3.0 1; action "m3" 1.0 1 ] in
  let h0 = Buildsys.Scheduler.plan_memo_hits () in
  let r1 = Buildsys.Scheduler.schedule ~workers:2 actions in
  let h1 = Buildsys.Scheduler.plan_memo_hits () in
  let r2 = Buildsys.Scheduler.schedule ~workers:2 actions in
  let h2 = Buildsys.Scheduler.plan_memo_hits () in
  check ti "first plan is a memo miss" h0 h1;
  check ti "replanning the same actions hits the memo" (h1 + 1) h2;
  check tb "memoized plan is identical" true (r1.wall_seconds = r2.wall_seconds);
  check ti "same placements" (List.length r1.placements) (List.length r2.placements)

let scheduler_makespan_law =
  QCheck.Test.make ~count:150 ~name:"makespan bounds (LPT)"
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 1 30) (float_range 0.1 10.0)))
    (fun (workers, costs) ->
      let actions = List.mapi (fun i c -> action (string_of_int i) c 0) costs in
      let r = Buildsys.Scheduler.schedule ~workers actions in
      let total = List.fold_left ( +. ) 0.0 costs in
      let longest = List.fold_left max 0.0 costs in
      (* Makespan is at least max(total/workers, longest) and at most
         total. *)
      r.wall_seconds >= (total /. float_of_int workers) -. 1e-6
      && r.wall_seconds >= longest -. 1e-6
      && r.wall_seconds <= total +. 1e-6)

(* --- Driver + cache interaction ----------------------------------- *)

let test_build_caches_objects () =
  let _, program = medium_program () in
  let env = Buildsys.Driver.make_env () in
  let opts = Codegen.default_options in
  let r1 =
    Buildsys.Driver.build env ~name:"b1" ~program ~codegen_options:opts
      ~link_options:Linker.Link.default_options
  in
  check ti "first build misses everything" 0 r1.cache_hits;
  let r2 =
    Buildsys.Driver.build env ~name:"b2" ~program ~codegen_options:opts
      ~link_options:Linker.Link.default_options
  in
  check ti "second build all hits" 0 r2.cache_misses;
  check ti "hit count" (List.length r2.objs) r2.cache_hits;
  check tb "rebuild faster" true (r2.wall_seconds < r1.wall_seconds)

let test_plan_invalidates_only_its_unit () =
  let _, program = medium_program () in
  let env = Buildsys.Driver.make_env () in
  let opts = { Codegen.default_options with emit_bb_addr_map = true } in
  let r1 =
    Buildsys.Driver.build env ~name:"b1" ~program ~codegen_options:opts
      ~link_options:Linker.Link.default_options
  in
  ignore r1;
  (* Find some function and give it a trivial plan. *)
  let f =
    Ir.Program.fold_funcs program None (fun acc f ->
        match acc with Some _ -> acc | None -> if f.Ir.Func.name <> "main" then Some f else acc)
  in
  let f = Option.get f in
  let plan =
    {
      Codegen.Directive.func = f.name;
      clusters =
        [
          {
            Codegen.Directive.kind = Codegen.Directive.Primary;
            blocks = List.init (Ir.Func.num_blocks f) Fun.id;
          };
        ];
    }
  in
  let r2 =
    Buildsys.Driver.build env ~name:"b2" ~program
      ~codegen_options:{ opts with plans = [ plan ] }
      ~link_options:Linker.Link.default_options
  in
  check ti "exactly one unit recompiled" 1 r2.cache_misses;
  check ti "everything else cached" (List.length r2.objs - 1) r2.cache_hits

let test_unit_action_key_sensitivity () =
  let _, program = medium_program () in
  let u = List.hd (Ir.Program.units program) in
  let k1 = Buildsys.Driver.unit_action_key u Codegen.default_options in
  let k2 =
    Buildsys.Driver.unit_action_key u { Codegen.default_options with emit_bb_addr_map = true }
  in
  check tb "flags change key" false (Support.Digesting.equal k1 k2);
  (* A plan for a function NOT in this unit must not change the key. *)
  let foreign_plan =
    { Codegen.Directive.func = "zz_not_here";
      clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0 ] } ] }
  in
  let k3 = Buildsys.Driver.unit_action_key u { Codegen.default_options with plans = [ foreign_plan ] } in
  check tb "foreign plan does not invalidate" true (Support.Digesting.equal k1 k3)

(* [Ir.Func.pp] omits the PGO estimates that intra-function layout
   reads, so the key carries them separately: a program whose only
   change is a [pgo_prob] must recompile that unit, and the cached
   build must link the image a fresh build links. *)
let test_action_key_tracks_pgo_probs () =
  let program pgo_prob =
    let callee = diamond_func ~name:"callee" ~prob:0.5 ~pgo_prob () in
    let main =
      Ir.Func.make ~name:"main"
        [|
          Ir.Block.make ~id:0 ~body:[ Ir.Inst.DirectCall "callee" ]
            ~term:(Ir.Term.Jump 1) ();
          compute_block ~id:1 ~bytes:5 ~term:Ir.Term.Return;
        |]
    in
    Ir.Program.make ~name:"pgoprog" ~main:"main"
      [ Ir.Cunit.make ~name:"u_main" [ main ]; Ir.Cunit.make ~name:"u_callee" [ callee ] ]
  in
  let image (r : Buildsys.Driver.result) = Linker.Binary.image_digest r.binary in
  let build env p =
    Buildsys.Driver.build env ~name:"img" ~program:p ~codegen_options:Codegen.default_options
      ~link_options:Linker.Link.default_options
  in
  let env = Buildsys.Driver.make_env () in
  let before = build env (program 0.9) in
  let cached = build env (program 0.1) in
  let fresh = build (Buildsys.Driver.make_env ()) (program 0.1) in
  check tb "the estimate change moves the layout" false
    (Support.Digesting.equal (image before) (image fresh));
  check ti "only the changed unit recompiles" 1 cached.cache_misses;
  check tb "cached build = fresh build" true
    (Support.Digesting.equal (image cached) (image fresh))

(* The hex of [concat] over every unit action key of [program], in
   unit order. *)
let unit_keys_hex program options =
  Support.Digesting.to_hex
    (Support.Digesting.concat
       (List.map
          (fun u -> Buildsys.Driver.unit_action_key u options)
          (Ir.Program.units program)))

(* Cached objects are found by these keys, and fault-plan decisions
   read their hex, so a change to how keys are built must leave every
   byte as it is: relink programs 0 and 1 under the metadata options,
   and program 0 under the optimize options its pipeline run derived. *)
let test_pinned_unit_keys () =
  let meta, _ = Propeller.Pipeline.metadata_options in
  List.iter
    (fun (k, expected) ->
      check ts (Printf.sprintf "metadata keys of relink %d" k) expected
        (unit_keys_hex (relink_family_program k) meta))
    [ (0, "af8629f32d65c8e6ba5c07fd153afcaa"); (1, "9be0509268938ff2cffc2c53795099e6") ];
  let _, r = Lazy.force relink0_run in
  let opt, _ = Propeller.Pipeline.optimize_options ~hugepages:Progen.Suite.clang.hugepages r.wpa in
  check ts "optimize keys of relink 0" "04963ad7409860835d3b9d1c73e295f9"
    (unit_keys_hex (relink_family_program 0) opt)

(* --- Streamed digests ---------------------------------------------- *)

(* The string forms the build digested before digests were streamed:
   a function's printed IR followed by its PGO estimates' float bits,
   and an object's fields and sections joined by '|'. *)
let func_digest_ref (f : Ir.Func.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Format.asprintf "%a" Ir.Func.pp f);
  let add p = Buffer.add_int64_le b (Int64.bits_of_float p) in
  Array.iter
    (fun (blk : Ir.Block.t) ->
      match blk.term with
      | Ir.Term.Branch { pgo_prob; _ } -> add pgo_prob
      | Ir.Term.Switch { pgo_probs; _ } -> Array.iter add pgo_probs
      | Ir.Term.Jump _ | Ir.Term.Return -> ())
    f.blocks;
  Support.Digesting.of_string (Buffer.contents b)

let obj_digest_ref (o : Objfile.File.t) =
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

let digest_programs =
  lazy
    (let mcf = Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")) in
     [
       relink_family_program 0;
       relink_family_program 1;
       mcf;
       Codegen.Inline.program mcf;
     ])

(* The shapes generated programs rarely draw: lines past the margin,
   landing pads, empty bodies, non-finite and tied probabilities,
   extreme ints, distinct PGO estimates. *)
let odd_func () =
  let long = String.make 120 'x' in
  Ir.Func.make ~name:long
    [|
      Ir.Block.make ~id:0
        ~body:
          [
            Ir.Inst.DirectCall long;
            Ir.Inst.DelinquentLoad { bytes = 7; miss_prob = Float.nan };
            Ir.Inst.DelinquentLoad { bytes = 1; miss_prob = -0.0 };
            Ir.Inst.DelinquentLoad { bytes = 2; miss_prob = 0.125 };
            Ir.Inst.VirtualCall { callees = [| ("a", 0.5); ("b", 0.5) |] };
            Ir.Inst.JumpTableData 16;
            Ir.Inst.MemStore 3;
            Ir.Inst.MemLoad 4;
            Ir.Inst.Compute (-3);
            Ir.Inst.Compute max_int;
            Ir.Inst.Compute min_int;
          ]
        ~term:(branch ~taken:1 ~fallthrough:2 ~prob:Float.infinity ~pgo_prob:(-0.001) ())
        ();
      Ir.Block.make ~is_landing_pad:true ~id:1 ~body:[]
        ~term:
          (Ir.Term.Switch
             {
               table = Array.init 40 (fun i -> 1 + (i mod 2));
               probs = Array.make 40 0.025;
               pgo_probs = Array.init 40 (fun i -> float_of_int i /. 780.0);
             })
        ();
      compute_block ~id:2 ~bytes:1 ~term:Ir.Term.Return;
    |]

(* The streamed function digest equals the digest of the printed IR
   and PGO bits, on every function of real programs and on odd ones. *)
let test_streamed_func_digest () =
  let same (f : Ir.Func.t) =
    check ts f.name
      (Support.Digesting.to_hex (func_digest_ref f))
      (Support.Digesting.to_hex (Buildsys.Driver.func_digest_uncached f))
  in
  List.iter (fun p -> Ir.Program.iter_funcs p same) (Lazy.force digest_programs);
  same (odd_func ())

(* The streamed object digest equals the digest of the joined string,
   on every object of those programs with and without address maps. *)
let test_streamed_obj_digest () =
  let meta, _ = Propeller.Pipeline.metadata_options in
  List.iter
    (fun options ->
      List.iter
        (fun p ->
          List.iter
            (fun (o : Objfile.File.t) ->
              check ts o.name
                (Support.Digesting.to_hex (obj_digest_ref o))
                (Support.Digesting.to_hex (Buildsys.Driver.obj_digest_uncached o)))
            (Codegen.compile_program options p))
        (Lazy.force digest_programs))
    [ meta; Codegen.default_options ]

let test_costmodel_monotonic () =
  check tb "codegen grows with code" true
    (Buildsys.Costmodel.codegen_seconds ~code_bytes:1_000_000
    > Buildsys.Costmodel.codegen_seconds ~code_bytes:1_000);
  check tb "wpa mem grows with dcfg" true
    (Buildsys.Costmodel.wpa_mem ~profile_bytes:0 ~dcfg_blocks:1_000_000 ~dcfg_edges:0
    > Buildsys.Costmodel.wpa_mem ~profile_bytes:0 ~dcfg_blocks:1_000 ~dcfg_edges:0);
  (* Chunked reading caps the profile contribution (5.1). *)
  let m1 = Buildsys.Costmodel.wpa_mem ~profile_bytes:(1 lsl 30) ~dcfg_blocks:0 ~dcfg_edges:0 in
  let m2 = Buildsys.Costmodel.wpa_mem ~profile_bytes:(1 lsl 33) ~dcfg_blocks:0 ~dcfg_edges:0 in
  check ti "profile reading is chunked" m1 m2

(* --- Fault injection (ISSUE 5) ------------------------------------ *)

let test_cache_find_verified () =
  let c = Buildsys.Cache.create () in
  let key = Support.Digesting.of_string "k" in
  let digest_of = Support.Digesting.of_string in
  Buildsys.Cache.add ~digest_of c key ~size:String.length "artifact";
  (match Buildsys.Cache.find_verified c key ~digest_of with
  | `Hit v -> check ts "verified hit" "artifact" v
  | `Miss | `Corrupt -> Alcotest.fail "fresh entry should verify");
  check tb "rot flips" true (Buildsys.Cache.corrupt c key);
  (match Buildsys.Cache.find_verified c key ~digest_of with
  | `Corrupt -> ()
  | `Hit _ -> Alcotest.fail "rotted entry must not verify"
  | `Miss -> Alcotest.fail "rot must be reported as corrupt, not a plain miss");
  check tb "evicted on detection" false (Buildsys.Cache.mem c key);
  check ti "corruption counted" 1 (Buildsys.Cache.corruptions c);
  (* The re-stored entry verifies again. *)
  Buildsys.Cache.add ~digest_of c key ~size:String.length "artifact";
  (match Buildsys.Cache.find_verified c key ~digest_of with
  | `Hit v -> check ts "re-stored entry verifies" "artifact" v
  | `Miss | `Corrupt -> Alcotest.fail "re-stored entry should verify");
  (* Entries stored without a digest are trusted hits. *)
  let key2 = Support.Digesting.of_string "k2" in
  Buildsys.Cache.add c key2 ~size:String.length "trusted";
  (match Buildsys.Cache.find_verified c key2 ~digest_of with
  | `Hit v -> check ts "undigested entry trusted" "trusted" v
  | `Miss | `Corrupt -> Alcotest.fail "undigested entry should hit");
  check tb "absent key cannot rot" false
    (Buildsys.Cache.corrupt c (Support.Digesting.of_string "nope"))

let test_scheduler_stragglers () =
  let plan = { Faultsim.Plan.default with straggle = 1.0; straggle_factor = 8.0 } in
  let r = Buildsys.Scheduler.schedule ~workers:1 ~faults:plan [ action "a" 2.0 1 ] in
  check ti "straggler counted" 1 r.Buildsys.Scheduler.stragglers;
  check ti "backup copy won" 1 r.Buildsys.Scheduler.speculated;
  (* Speculative re-issue caps an 8x straggler at 2x its nominal cost. *)
  check tb "slowdown capped at 2x" true (abs_float (r.wall_seconds -. 4.0) < 1e-9);
  let clean = Buildsys.Scheduler.schedule ~workers:1 [ action "a" 2.0 1 ] in
  check ti "no plan, no stragglers" 0 clean.Buildsys.Scheduler.stragglers

let faulted_env plan =
  Buildsys.Driver.make_env
    ~ctx:(Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~faults:plan ())
    ()

let default_build env ?(codegen = Codegen.default_options) name program =
  Buildsys.Driver.build env ~name ~program ~codegen_options:codegen
    ~link_options:Linker.Link.default_options

let test_build_retry_accounting () =
  let _, program = medium_program () in
  (* Every attempt fails; the plan forces success on attempt 3. *)
  let plan = { Faultsim.Plan.default with action_fail = 1.0; max_attempts = 3 } in
  let env = faulted_env plan in
  let r = default_build env "img" program in
  let units = List.length r.objs in
  check ti "two retries per unit" (2 * units) r.faults.retried;
  check ti "injected = failed attempts" (2 * units) r.faults.injected;
  check ti "retries alone degrade nothing" 0 r.faults.degraded;
  (* Backoff gaps 0.5 + 1.0 per unit, geometric from the defaults. *)
  check tb "backoff accumulated" true
    (abs_float (r.faults.backoff_seconds -. (1.5 *. float_of_int units)) < 1e-6);
  check tb "retries stretch the makespan" true
    (r.wall_seconds > (default_build (Buildsys.Driver.make_env ()) "r0" program).wall_seconds);
  (* degraded = 0 => the image is the fault-free image. *)
  let clean = default_build (Buildsys.Driver.make_env ()) "img" program in
  check tb "fault-free digest recovered" true
    (Support.Digesting.equal
       (Linker.Binary.image_digest r.binary)
       (Linker.Binary.image_digest clean.binary))

let test_build_corrupt_eviction () =
  let _, program = medium_program () in
  let plan = { Faultsim.Plan.default with corrupt = 1.0 } in
  let env = faulted_env plan in
  let r1 = default_build env "img" program in
  let units = List.length r1.objs in
  check ti "first build misses everything" units r1.cache_misses;
  (* Every stored entry rotted in place; the rebuild detects each one on
     its verified read, evicts it and recompiles from source. *)
  let r2 = default_build env "img" program in
  check ti "all rot caught" units r2.faults.corrupt_evicted;
  check ti "all recompiled" units r2.cache_misses;
  check ti "cache-level corruption accounting" units
    (Buildsys.Cache.corruptions env.obj_cache);
  check ti "recompiles do not degrade" 0 r2.faults.degraded;
  check tb "recompiled image byte-identical" true
    (Support.Digesting.equal
       (Linker.Binary.image_digest r1.binary)
       (Linker.Binary.image_digest r2.binary));
  (* Rot flips once per key: the entries re-stored after detection stay
     clean, so a third build is all hits. *)
  let r3 = default_build env "img" program in
  check ti "third build all hits" 0 r3.cache_misses;
  check ti "no further corruption" 0 r3.faults.corrupt_evicted

(* A layout plan that actually moves bytes: entry first, the remaining
   blocks reversed. *)
let reversal_plan (f : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  {
    Codegen.Directive.func = f.name;
    clusters =
      [
        {
          Codegen.Directive.kind = Codegen.Directive.Primary;
          blocks = 0 :: List.rev (List.init (n - 1) (fun i -> i + 1));
        };
      ];
  }

let test_build_persistent_fallback () =
  let _, program = medium_program () in
  let plan = { Faultsim.Plan.default with persist = 1.0 } in
  let env = faulted_env plan in
  let r1 = default_build env "img" program in
  (* No last-good store yet, so the first build compiles everything. *)
  check ti "first build cannot fall back" 0 r1.faults.fallbacks;
  (* Invalidate one unit via a layout plan; its action persistently
     fails and the build degrades to the unit's base object. *)
  let f =
    Ir.Program.fold_funcs program None (fun acc f ->
        match acc with
        | Some _ -> acc
        | None -> if f.Ir.Func.name <> "main" && Ir.Func.num_blocks f >= 3 then Some f else acc)
  in
  let codegen =
    { Codegen.default_options with plans = [ reversal_plan (Option.get f) ] }
  in
  let r2 = default_build env ~codegen "img" program in
  check ti "one unit degraded" 1 r2.faults.degraded;
  check ti "fallbacks equal degraded" 1 r2.faults.fallbacks;
  check tb "attempt budget burned before giving up" true (r2.faults.retried > 0);
  check tb "link completes on the fallback object" true
    (Support.Digesting.equal
       (Linker.Binary.image_digest r2.binary)
       (Linker.Binary.image_digest r1.binary));
  (* The fallback was never cached under the failing key, so the same
     build degrades again instead of serving a poisoned hit ... *)
  let r3 = default_build env ~codegen "img" program in
  check ti "fallback not cached" 1 r3.faults.degraded;
  (* ... and a fault-free build of the same options produces different
     (re-laid-out) bytes than the degraded image. *)
  let clean = default_build (Buildsys.Driver.make_env ()) ~codegen "img" program in
  check tb "degradation visibly changed the image" false
    (Support.Digesting.equal
       (Linker.Binary.image_digest clean.binary)
       (Linker.Binary.image_digest r2.binary))

let suite =
  [
    Alcotest.test_case "cache: hit/miss accounting" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: reset stats" `Quick test_cache_reset_stats;
    Alcotest.test_case "cache: LRU eviction under capacity" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: same-key replacement" `Quick test_cache_replace_same_key;
    Alcotest.test_case "scheduler: single worker" `Quick test_scheduler_single_worker;
    Alcotest.test_case "scheduler: parallel" `Quick test_scheduler_parallel;
    Alcotest.test_case "scheduler: memory limit" `Quick test_scheduler_mem_limit;
    Alcotest.test_case "scheduler: empty" `Quick test_scheduler_empty;
    Alcotest.test_case "scheduler: LPT plan memo" `Quick test_scheduler_plan_memo;
    QCheck_alcotest.to_alcotest scheduler_makespan_law;
    Alcotest.test_case "driver: rebuilds hit cache" `Quick test_build_caches_objects;
    Alcotest.test_case "driver: plans invalidate only their unit" `Quick test_plan_invalidates_only_its_unit;
    Alcotest.test_case "driver: action key sensitivity" `Quick test_unit_action_key_sensitivity;
    Alcotest.test_case "driver: action key tracks PGO estimates" `Quick
      test_action_key_tracks_pgo_probs;
    Alcotest.test_case "driver: pinned unit keys of relink programs" `Quick test_pinned_unit_keys;
    Alcotest.test_case "driver: streamed function digest = printed IR + PGO bits" `Quick
      test_streamed_func_digest;
    Alcotest.test_case "driver: streamed object digest = joined string" `Quick
      test_streamed_obj_digest;
    Alcotest.test_case "cost models monotonic" `Quick test_costmodel_monotonic;
    Alcotest.test_case "cache: digest-verified reads catch rot" `Quick test_cache_find_verified;
    Alcotest.test_case "scheduler: stragglers + speculation" `Quick test_scheduler_stragglers;
    Alcotest.test_case "driver: retry with backoff" `Quick test_build_retry_accounting;
    Alcotest.test_case "driver: corrupt entries evicted + recompiled" `Quick
      test_build_corrupt_eviction;
    Alcotest.test_case "driver: persistent failure falls back" `Quick
      test_build_persistent_fallback;
  ]
