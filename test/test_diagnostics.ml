(* Diagnostics: profile-quality and layout-quality metrics computed
   from hand-built LBR profiles with known, exact answers, plus the
   bench-JSON comparator and the determinism guarantee the committed
   golden baseline relies on. *)

open Testutil

(* A metadata build of a single diamond function; returns the binary
   plus the four placed blocks in id order. *)
let diamond_binary () =
  let program =
    Ir.Program.make ~name:"diamondprog" ~main:"diamond"
      [ Ir.Cunit.make ~name:"u" [ diamond_func () ] ]
  in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let block i = block_info_exn binary ~func:"diamond" ~block:i in
  (binary, Array.init 4 block)

let block_end (b : Linker.Binary.block_info) = b.addr + b.size

(* Quality.analyze on a profile with one mapped taken branch (0 -> 1,
   weight 3) and one stale record (weight 1): every ratio is exact. *)
let test_quality_exact () =
  let binary, blocks = diamond_binary () in
  let profile = Perfmon.Lbr.create_profile () in
  (* The branch retires at its end address: src-1 must land in block 0. *)
  Perfmon.Lbr.add_pair profile.Perfmon.Lbr.branches ~src:(block_end blocks.(0))
    ~dst:blocks.(1).addr 3;
  (* A record from a different binary version: both endpoints unmapped. *)
  Perfmon.Lbr.add_pair profile.Perfmon.Lbr.branches ~src:1 ~dst:2 1;
  profile.Perfmon.Lbr.num_samples <- 2;
  profile.Perfmon.Lbr.num_records <- 4;
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let q = Diagnostics.Quality.analyze ~dcfg ~profile () in
  check ti "mapped blocks" 4 q.mapped_blocks;
  (* Only the destination block of a taken branch gets a sample count. *)
  check ti "sampled blocks" 1 q.sampled_blocks;
  check tf "block coverage" 0.25 q.block_coverage;
  let total_bytes =
    Array.fold_left (fun acc (b : Linker.Binary.block_info) -> acc + b.size) 0 blocks
  in
  check tf "byte coverage"
    (float_of_int blocks.(1).size /. float_of_int total_bytes)
    q.byte_coverage;
  check tf "func coverage" 1.0 q.func_coverage;
  check ti "mismatch records" 1 q.mismatch_records;
  check tf "mismatch rate" 0.25 q.mismatch_rate;
  (* One sampled block carries 100% of the mass. *)
  check tf "concentration" 1.0 q.concentration_p90;
  check ti "samples" 2 q.total_samples;
  check ti "records" 4 q.total_records;
  check ti "pebs" 0 q.pebs_samples

(* A fully mapped profile has zero mismatch. *)
let test_quality_no_mismatch () =
  let binary, blocks = diamond_binary () in
  let profile = Perfmon.Lbr.create_profile () in
  Perfmon.Lbr.add_pair profile.Perfmon.Lbr.branches ~src:(block_end blocks.(0))
    ~dst:blocks.(2).addr 7;
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let q = Diagnostics.Quality.analyze ~dcfg ~profile () in
  check ti "no mismatch" 0 q.mismatch_records;
  check tf "rate" 0.0 q.mismatch_rate

(* Layoutq on a hand-built DCFG. The linked layout of the diamond is
   the fall-through chain 0,2,3 followed by the taken-path block 1 (the
   codegen places the likelier fallthrough successors first), which the
   test first pins down. A sequential range then samples blocks 0 and 2
   (fall-through edge 0->2, weight 5) and a taken branch from block 2
   lands on block 1 (edge 2->1, weight 2) — not adjacent, since block 3
   sits between. Every aggregate is exact, and the Ext-TSP score must
   equal a direct Exttsp.score call on the same dense inputs. *)
let test_layout_exact () =
  let binary, blocks = diamond_binary () in
  (* Pin the layout assumption the arithmetic below relies on. *)
  check ti "block 2 follows block 0" (block_end blocks.(0)) blocks.(2).addr;
  check ti "block 3 follows block 2" (block_end blocks.(2)) blocks.(3).addr;
  check ti "block 1 follows block 3" (block_end blocks.(3)) blocks.(1).addr;
  let profile = Perfmon.Lbr.create_profile () in
  (* Sequential range covering blocks 0 and 2 only (hi is exclusive of
     any block *starting* at it): fall-through edge + both counts. *)
  Perfmon.Lbr.add_pair profile.Perfmon.Lbr.ranges ~src:blocks.(0).addr
    ~dst:(blocks.(2).addr + 1) 5;
  Perfmon.Lbr.add_pair profile.Perfmon.Lbr.branches ~src:(block_end blocks.(2))
    ~dst:blocks.(1).addr 2;
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let l = Diagnostics.Layoutq.analyze ~dcfg ~final:binary () in
  check ti "edge weight" 7 l.edge_weight;
  check ti "fall-through weight" 5 l.fall_through_weight;
  check tb "fall-through rate" true (abs_float (l.fall_through_rate -. (5.0 /. 7.0)) < 1e-9);
  check ti "hot funcs scored" 1 l.hot_funcs_scored;
  check ti "blocks missing" 0 l.blocks_missing;
  (* Cross-validate against Exttsp.score: sampled blocks 0,2,1 become
     dense nodes 0,1,2 in address order, with final (relaxed) sizes —
     byte-for-byte the inputs score_func hands to the scorer. *)
  let sizes =
    Array.of_list (List.map (fun i -> blocks.(i).Linker.Binary.size) [ 0; 2; 1 ])
  in
  let edges = [ (0, 1, 5.0); (1, 2, 2.0) ] in
  let p = Testutil.problem_of_edges ~sizes ~weights:(Array.make 3 0.0) ~edges ~entry:0 in
  let expected = Layout.Exttsp.score ~order:[ 0; 1; 2 ] p in
  check tb "exttsp matches direct score" true (abs_float (l.exttsp_score -. expected) < 1e-9);
  check tb "norm consistent" true (abs_float (l.exttsp_norm -. (expected /. 7.0)) < 1e-9);
  (* The fall-through component alone is worth 5.0. *)
  check tb "exttsp >= fall-through mass" true (l.exttsp_score >= 5.0 -. 1e-9)

(* The layout-quality score of relink program 0's and 505.mcf's
   optimized binaries, as bits. *)
let test_layout_pinned () =
  let pin (r : Propeller.Pipeline.result) =
    let l =
      Diagnostics.Layoutq.analyze ~dcfg:(run_dcfg r) ~final:(Propeller.Pipeline.optimized_binary r)
        ()
    in
    Printf.sprintf "%Lx" (Int64.bits_of_float l.exttsp_score)
  in
  check ts "relink 0" "40d4aadc12e147ad" (pin (snd (Lazy.force relink0_run)));
  check ts "505.mcf" "40e41e47b3ae147b" (pin (Lazy.force mcf_run))

(* Same seed => byte-identical diagnostics JSON: the property that makes
   a committed bench/baseline.json safe to diff against in CI. *)
let test_report_deterministic () =
  let run () =
    let spec, program = medium_program () in
    let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
    let result =
      Propeller.Pipeline.run
        ~config:
          {
            Propeller.Pipeline.default_config with
            profile_run = { Exec.Interp.default_config with requests = spec.requests };
          }
        ~env ~program ~name:spec.name ()
    in
    let report = Diagnostics.Report.analyze ~name:spec.name ~result () in
    Obs.Json.to_string (Diagnostics.Report.to_json report)
  in
  let a = run () and b = run () in
  check ts "byte-identical JSON" a b;
  (* And the JSON round-trips through our own parser. *)
  match Obs.Json.parse a with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not re-parse: %s" e

(* --- comparator ---------------------------------------------------- *)

let bench_json ?(schema = 1) ?(drop_coverage = false) ~prop ~cov () =
  let quality =
    if drop_coverage then []
    else [ ("block_coverage", Obs.Json.Float cov) ]
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema);
      ( "benchmarks",
        Obs.Json.List
          [
            Obs.Json.Obj
              [
                ("name", Obs.Json.String "x");
                ("speedup_pct", Obs.Json.Obj [ ("propeller", Obs.Json.Float prop) ]);
                ( "diagnostics",
                  Obs.Json.Obj [ ("profile_quality", Obs.Json.Obj quality) ] );
              ];
          ] );
      ("summary", Obs.Json.Obj [ ("geomean_speedup_propeller", Obs.Json.Float prop) ]);
    ]

let run_compare ?threshold_pct ~baseline ~current () =
  match Diagnostics.Compare.compare ?threshold_pct ~baseline ~current () with
  | Ok o -> o
  | Error e -> Alcotest.failf "compare errored: %s" e

let test_compare_identical () =
  let j = bench_json ~prop:10.0 ~cov:0.5 () in
  let o = run_compare ~baseline:j ~current:j () in
  check tb "ok" true (Diagnostics.Compare.ok o);
  check ti "verdicts" 3 (List.length o.Diagnostics.Compare.verdicts);
  check ti "regressions" 0 (List.length (Diagnostics.Compare.regressions o))

let test_compare_regression () =
  (* Speedup 10% -> 8%: a -20% move on a Higher-is-better metric, well
     past the 5% default threshold, in both places it appears. *)
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = bench_json ~prop:8.0 ~cov:0.5 () in
  let o = run_compare ~baseline ~current () in
  check tb "not ok" false (Diagnostics.Compare.ok o);
  check ti "regressions" 2 (List.length (Diagnostics.Compare.regressions o));
  (* A generous threshold lets the same delta pass. *)
  let o = run_compare ~threshold_pct:25.0 ~baseline ~current () in
  check tb "ok at 25%" true (Diagnostics.Compare.ok o)

let test_compare_improvement_not_flagged () =
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = bench_json ~prop:14.0 ~cov:0.6 () in
  let o = run_compare ~baseline ~current () in
  check tb "ok" true (Diagnostics.Compare.ok o);
  check tb "improved marked" true
    (List.exists (fun v -> v.Diagnostics.Compare.improved) o.Diagnostics.Compare.verdicts)

let test_compare_missing_metric () =
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = bench_json ~drop_coverage:true ~prop:10.0 ~cov:0.5 () in
  let o = run_compare ~baseline ~current () in
  check tb "not ok" false (Diagnostics.Compare.ok o);
  check ti "missing" 1 (List.length o.Diagnostics.Compare.missing)

let test_compare_schema_guard () =
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = bench_json ~schema:2 ~prop:10.0 ~cov:0.5 () in
  (* Older baseline vs newer current: graceful — judged metrics both
     sides have are still compared, and a NOTE explains the skew. *)
  (match Diagnostics.Compare.compare ~baseline ~current () with
  | Error e -> Alcotest.failf "older baseline must compare gracefully: %s" e
  | Ok o ->
    check tb "ok" true (Diagnostics.Compare.ok o);
    check ti "verdicts still judged" 3 (List.length o.Diagnostics.Compare.verdicts);
    check tb "schema-skew note present" true (o.Diagnostics.Compare.notes <> []));
  (* The reverse direction (newer baseline) is a caller error. *)
  (match Diagnostics.Compare.compare ~baseline:current ~current:baseline () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "newer baseline must error");
  match Diagnostics.Compare.compare ~baseline:Obs.Json.Null ~current:baseline () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object input must error"

(* A current file that gained a judged metric the baseline lacks. *)
let with_fall_through json v =
  match json with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (fields
      @ [ ("layout_quality", Obs.Json.Obj [ ("fall_through_rate", Obs.Json.Float v) ]) ])
  | _ -> assert false

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let test_compare_schema_gained_key_noted () =
  (* A baseline predating a judged metric: the current file's new
     judged metric is reported as a NOTE, not judged and not missing. *)
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = with_fall_through (bench_json ~schema:2 ~prop:10.0 ~cov:0.5 ()) 0.42 in
  let o = run_compare ~baseline ~current () in
  check tb "ok" true (Diagnostics.Compare.ok o);
  check ti "nothing missing" 0 (List.length o.Diagnostics.Compare.missing);
  check tb "gained key noted" true
    (List.exists (fun n -> contains_sub n "fall_through_rate") o.Diagnostics.Compare.notes)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" path e

let test_compare_v9_baseline () =
  (* The last v9 bench/baseline.json still carries the wall-clock
     selfspeed object, which v10 dropped. Against the v10 baseline it
     must compare ok: selfspeed is no longer judged, so it is neither
     missing nor given a verdict. *)
  let dir = Filename.dirname Sys.executable_name in
  let baseline = read_json (Filename.concat dir "baseline_v9.json")
  and current = read_json (Filename.concat dir "../bench/baseline.json") in
  check tb "v9 has selfspeed" true (contains_sub (Obs.Json.to_string baseline) "selfspeed");
  let o = run_compare ~baseline ~current () in
  check tb "ok" true (Diagnostics.Compare.ok o);
  check ti "nothing missing" 0 (List.length o.Diagnostics.Compare.missing);
  check tb "verdicts present" true (o.Diagnostics.Compare.verdicts <> []);
  check tb "no selfspeed verdict" false
    (List.exists
       (fun v -> contains_sub v.Diagnostics.Compare.metric "selfspeed.")
       o.Diagnostics.Compare.verdicts)

let test_diff_stdout_parseable () =
  (* The `propeller stat diff` contract: verdict/MISSING lines go to
     stdout, NOTE lines to stderr. On a mixed-schema diff (older
     baseline, current file with a gained judged metric) every stdout
     line must parse as `<mark> <metric> ...` with a fixed mark, and no
     NOTE may leak into the parseable half. *)
  let baseline = bench_json ~prop:10.0 ~cov:0.5 () in
  let current = with_fall_through (bench_json ~schema:2 ~prop:8.0 ~cov:0.5 ()) 0.42 in
  let o = run_compare ~baseline ~current () in
  let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let stdout_lines = lines (Diagnostics.Compare.render_verdicts o) in
  check tb "stdout nonempty" true (stdout_lines <> []);
  List.iter
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (fun w -> w <> "") with
      | mark :: metric :: _ ->
        check tb
          (Printf.sprintf "line %S has a fixed mark" l)
          true
          (List.mem mark [ "ok"; "improved"; "REGRESSED"; "MISSING" ]);
        check tb "metric field present" true (String.length metric > 0)
      | _ -> Alcotest.failf "unparseable stdout line: %S" l)
    stdout_lines;
  check tb "no NOTE on stdout" false
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "NOTE") stdout_lines);
  let note_lines = lines (Diagnostics.Compare.render_notes o) in
  check tb "mixed-schema diff produced notes" true (note_lines <> []);
  List.iter
    (fun l ->
      check tb (Printf.sprintf "note %S marked NOTE" l) true
        (String.length l >= 4 && String.sub l 0 4 = "NOTE"))
    note_lines

(* --- Fidelity (ISSUE 8): LBR-vs-sampled gap report ----------------- *)

let fidelity_fixture =
  lazy
    (let spec, program = medium_program () in
     let run () =
       Diagnostics.Fidelity.analyze ~requests:spec.requests
         ~ctx:(ctx ()) ~program ~name:spec.name ()
     in
     (run (), run))

let test_fidelity_bounds () =
  let f, _ = Lazy.force fidelity_fixture in
  check tb "correlation in [-1,1]" true
    (f.Diagnostics.Fidelity.weight_correlation >= -1.0 && f.weight_correlation <= 1.0);
  let rate_ok r = r >= 0.0 && r <= 1.0 in
  check tb "base fall-through in [0,1]" true (rate_ok f.base_fall_through_rate);
  check tb "lbr fall-through in [0,1]" true (rate_ok f.lbr.fall_through_rate);
  check tb "sampled fall-through in [0,1]" true (rate_ok f.sampled.fall_through_rate);
  check tb "cycles positive" true
    (f.base_cycles > 0.0 && f.lbr.po_cycles > 0.0 && f.sampled.po_cycles > 0.0);
  check tb "sides tagged correctly" true
    (f.lbr.source = Perfmon.Source.Lbr && f.sampled.source = Perfmon.Source.Sampled);
  check tb "profiles non-empty" true
    (f.lbr.profile_records > 0 && f.sampled.profile_records > 0);
  (* The gap fields are consistent with the sides they summarize. *)
  check tf "fall-through gap"
    (f.lbr.fall_through_rate -. f.sampled.fall_through_rate)
    f.fall_through_gap;
  check tf "cycle gap"
    ((f.sampled.po_cycles -. f.lbr.po_cycles) /. f.lbr.po_cycles *. 100.0)
    f.cycle_gap_pct

let test_fidelity_json_roundtrip () =
  let f, _ = Lazy.force fidelity_fixture in
  let rendered = Obs.Json.to_string (Diagnostics.Fidelity.to_json f) in
  match Obs.Json.parse rendered with
  | Error e -> Alcotest.fail ("fidelity JSON does not re-parse: " ^ e)
  | Ok v ->
    let num path =
      match Obs.Json.member path v with
      | Some (Obs.Json.Float x) -> x
      | Some (Obs.Json.Int x) -> float_of_int x
      | _ -> Alcotest.fail ("missing numeric field " ^ path)
    in
    check (Alcotest.float 1e-4) "correlation round-trips"
      f.Diagnostics.Fidelity.weight_correlation
      (num "weight_correlation");
    check tb "both sides present" true
      (Obs.Json.member "lbr" v <> None && Obs.Json.member "sampled" v <> None);
    check tb "text report mentions gap" true
      (let t = Diagnostics.Fidelity.to_text f in
       String.length t > 0)

let test_fidelity_deterministic () =
  let f1, run = Lazy.force fidelity_fixture in
  let f2 = run () in
  check ts "fidelity JSON identical across runs"
    (Obs.Json.to_string (Diagnostics.Fidelity.to_json f1))
    (Obs.Json.to_string (Diagnostics.Fidelity.to_json f2))

let suite =
  [
    Alcotest.test_case "quality: exact coverage + mismatch" `Quick test_quality_exact;
    Alcotest.test_case "quality: fresh profile no mismatch" `Quick test_quality_no_mismatch;
    Alcotest.test_case "layout: exact exttsp + fall-through" `Quick test_layout_exact;
    Alcotest.test_case "layout: pinned scores on real programs" `Quick test_layout_pinned;
    Alcotest.test_case "report: same seed, identical JSON" `Quick test_report_deterministic;
    Alcotest.test_case "compare: identical files ok" `Quick test_compare_identical;
    Alcotest.test_case "compare: regression flagged" `Quick test_compare_regression;
    Alcotest.test_case "compare: improvement passes" `Quick test_compare_improvement_not_flagged;
    Alcotest.test_case "compare: missing metric fails" `Quick test_compare_missing_metric;
    Alcotest.test_case "compare: schema guard" `Quick test_compare_schema_guard;
    Alcotest.test_case "compare: gained key noted" `Quick test_compare_schema_gained_key_noted;
    Alcotest.test_case "compare: diff stdout parseable" `Quick test_diff_stdout_parseable;
    Alcotest.test_case "compare: v9 baseline vs v10" `Quick test_compare_v9_baseline;
    Alcotest.test_case "fidelity: metric bounds" `Quick test_fidelity_bounds;
    Alcotest.test_case "fidelity: JSON round-trip" `Quick test_fidelity_json_roundtrip;
    Alcotest.test_case "fidelity: deterministic" `Quick test_fidelity_deterministic;
  ]
