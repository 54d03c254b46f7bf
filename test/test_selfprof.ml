open Testutil

(* --- Hostclock ---------------------------------------------------- *)

let test_hostclock_monotone () =
  let prev = ref (Obs.Hostclock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Hostclock.now () in
    if t < !prev then Alcotest.failf "host clock went backwards: %.9f < %.9f" t !prev;
    prev := t
  done

let test_gc_delta_monotone () =
  (* Empty the minor heap first: words allocated by *earlier* tests
     that get promoted inside the measured interval would deflate
     allocated_words (promoted is subtracted, but their allocation was
     counted before the interval began). *)
  Gc.full_major ();
  let before = Obs.Hostclock.gc_snapshot () in
  (* Allocate enough to move the minor counter for sure. *)
  let keep = ref [] in
  for i = 1 to 10_000 do
    keep := (i, float_of_int i) :: !keep
  done;
  ignore (List.length !keep);
  let after = Obs.Hostclock.gc_snapshot () in
  let d = Obs.Hostclock.gc_delta ~before ~after in
  check tb "minor words grew" true (d.Obs.Hostclock.minor_words > 0.0);
  check tb "allocated_words positive" true (Obs.Hostclock.allocated_words d > 0.0);
  (* Swapped arguments clamp to zero instead of going negative. *)
  let swapped = Obs.Hostclock.gc_delta ~before:after ~after:before in
  check tb "clamped minor" true (swapped.Obs.Hostclock.minor_words >= 0.0);
  check tb "clamped major" true (swapped.Obs.Hostclock.major_words >= 0.0);
  check ti "clamped minor collections" 0
    (min 0 swapped.Obs.Hostclock.minor_collections);
  check tb "clamped allocated" true (Obs.Hostclock.allocated_words swapped >= 0.0)

(* --- Flight ring buffer ------------------------------------------- *)

let test_flight_wraparound () =
  let f = Obs.Flight.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Flight.record f ~sim:(float_of_int i) Obs.Flight.Note
      (Printf.sprintf "e%d" i) "d"
  done;
  (* The header counts every record; the ring keeps the last K, oldest
     first, each with its own sequence number and name. *)
  check ts "last K survive, oldest first"
    ("flight recorder: last 4 of 10 events (oldest first)\n"
    ^ String.concat ""
        (List.map
           (fun i -> Printf.sprintf "  #%-6d t=%d.000000s note          e%d d\n" i i i)
           [ 6; 7; 8; 9 ]))
    (Obs.Flight.dump f)

let test_flight_dump_deterministic () =
  (* Two identical instrumented runs: the dump text must be
     byte-identical (host times are excluded by design). *)
  let run () =
    let r = Obs.Recorder.create ~flight_capacity:8 () in
    Obs.Recorder.with_span r "build" (fun () ->
        Obs.Recorder.advance r 1.5;
        Obs.Recorder.incr_counter r "cache.hits";
        Obs.Recorder.with_span r "link" (fun () -> Obs.Recorder.advance r 0.25));
    Obs.Recorder.flight_note r "fault.fallback" "unit3";
    Obs.Recorder.flight_dump r
  in
  let a = run () and b = run () in
  check ts "identical dumps" a b;
  check tb "dump mentions the note" true
    (let s = a in
     let rec find i =
       i + 14 <= String.length s && (String.sub s i 14 = "fault.fallback" || find (i + 1))
     in
     find 0)

(* --- Selfprof ----------------------------------------------------- *)

let test_disabled_profiler_records_nothing () =
  let sp = Obs.Selfprof.create () in
  check tb "enter yields no frame" true (Obs.Selfprof.enter sp "x" = None);
  Obs.Selfprof.leave sp None;
  let v = selfprof_span sp "y" (fun () -> 42) in
  check ti "span passes value through" 42 v;
  check ti "no paths" 0 (List.length (selfprof_rows sp));
  check ts "empty folded" "" (Obs.Selfprof.folded sp)

let spin () =
  (* Burn a little host time and allocation so deltas are non-zero. *)
  let acc = ref [] in
  for i = 1 to 2_000 do
    acc := string_of_int i :: !acc
  done;
  ignore (List.length !acc)

let profiled_structure () =
  let sp = Obs.Selfprof.create () in
  Obs.Selfprof.enable sp;
  selfprof_span sp "round" (fun () ->
      spin ();
      selfprof_span sp "wpa" (fun () -> spin ());
      selfprof_span sp "link" (fun () -> spin ()));
  selfprof_span sp "round" (fun () -> spin ());
  sp

let test_paths_and_counts () =
  let sp = profiled_structure () in
  let rows = selfprof_rows sp in
  check (Alcotest.list ts) "paths sorted, stack-joined"
    [ "round"; "round;link"; "round;wpa" ]
    (List.map (fun (r : Obs.Selfprof.row) -> r.path) rows);
  check (Alcotest.list ts) "leaf names" [ "round"; "link"; "wpa" ]
    (List.map (fun (r : Obs.Selfprof.row) -> r.name) rows);
  check (Alcotest.list ti) "counts" [ 2; 1; 1 ]
    (List.map (fun (r : Obs.Selfprof.row) -> r.count) rows);
  List.iter
    (fun (r : Obs.Selfprof.row) ->
      check tb (r.path ^ ": self host within inclusive") true
        (r.self_host_s >= 0.0 && r.self_host_s <= r.host_s +. 1e-9);
      check tb (r.path ^ ": self alloc within inclusive") true
        (r.self_alloc_words >= 0.0 && r.self_alloc_words <= r.alloc_words +. 1.0))
    rows;
  (* The parent's self excludes the children: inclusive parent time
     covers at least the children's inclusive time. *)
  let find p = List.find (fun (r : Obs.Selfprof.row) -> r.path = p) rows in
  let round = find "round" and wpa = find "round;wpa" and link = find "round;link" in
  check tb "parent inclusive >= children inclusive" true
    (round.host_s +. 1e-9 >= wpa.host_s +. link.host_s)

let test_exception_closes_frame () =
  let sp = Obs.Selfprof.create () in
  Obs.Selfprof.enable sp;
  (try selfprof_span sp "boom" (fun () -> failwith "inner") with Failure _ -> ());
  selfprof_span sp "after" (fun () -> ());
  check (Alcotest.list ts) "frame popped despite raise" [ "after"; "boom" ]
    (List.map (fun (r : Obs.Selfprof.row) -> r.path) (selfprof_rows sp))

(* Strip the numeric weight from each folded line, leaving the path
   structure — the deterministic part of the contract. *)
let folded_paths s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | Some i -> String.sub l 0 i
         | None -> l)

let test_folded_deterministic_modulo_weights () =
  let a = profiled_structure () and b = profiled_structure () in
  check (Alcotest.list ts) "folded structure identical across runs"
    (folded_paths (Obs.Selfprof.folded a))
    (folded_paths (Obs.Selfprof.folded b));
  check (Alcotest.list ts) "host and alloc weighting share structure"
    (folded_paths (Obs.Selfprof.folded ~weight:`Host a))
    (folded_paths (Obs.Selfprof.folded ~weight:`Alloc a));
  (* Weights are integers >= 0, one per line. *)
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "folded line without weight: %s" l
      | Some i -> (
        let w = String.sub l (i + 1) (String.length l - i - 1) in
        match float_of_string_opt w with
        | Some f when f >= 0.0 -> ()
        | _ -> Alcotest.failf "bad folded weight %S in %S" w l))
    (String.split_on_char '\n' (Obs.Selfprof.folded a)
    |> List.filter (fun l -> l <> ""))

let test_hotspot_ranking () =
  let row ~path ~name ~self ~alloc =
    {
      Obs.Selfprof.path;
      name;
      count = 1;
      host_s = self;
      self_host_s = self;
      alloc_words = alloc;
      self_alloc_words = alloc;
      minor_words = alloc;
      major_words = 0.0;
      promoted_words = 0.0;
      minor_collections = 0;
      major_collections = 0;
    }
  in
  let rows =
    [
      row ~path:"a;slow" ~name:"slow" ~self:3.0 ~alloc:10.0;
      row ~path:"a;fast" ~name:"fast" ~self:0.5 ~alloc:99.0;
      (* Same leaf name under two paths merges into one hotspot. *)
      row ~path:"b;slow" ~name:"slow" ~self:2.0 ~alloc:10.0;
      row ~path:"a;tie1" ~name:"tie1" ~self:1.0 ~alloc:5.0;
      row ~path:"a;tie2" ~name:"tie2" ~self:1.0 ~alloc:50.0;
    ]
  in
  let hs = Obs.Selfprof.hotspots_of_rows rows in
  check (Alcotest.list ts) "ranked by self host, alloc breaks ties"
    [ "slow"; "tie2"; "tie1"; "fast" ]
    (List.map (fun (h : Obs.Selfprof.hotspot) -> h.hname) hs);
  let slow = List.hd hs in
  check ti "merged count" 2 slow.Obs.Selfprof.hcount;
  check tf "merged self host" 5.0 slow.Obs.Selfprof.hself_host_s;
  let hs1 = Obs.Selfprof.hotspots_of_rows ~limit:2 rows in
  check ti "limit respected" 2 (List.length hs1);
  (* The rendered table mentions every surviving hotspot. *)
  let table = Obs.Selfprof.render_hotspots hs in
  List.iter
    (fun (h : Obs.Selfprof.hotspot) ->
      let name = h.hname in
      let rec find i =
        i + String.length name <= String.length table
        && (String.sub table i (String.length name) = name || find (i + 1))
      in
      check tb (name ^ " in table") true (find 0))
    hs

let test_json_roundtrip () =
  let sp = profiled_structure () in
  let json = Obs.Selfprof.to_json sp in
  (* Survives our own serializer (what --self-profile-out writes). *)
  let reparsed =
    match Obs.Json.parse (Obs.Json.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.failf "self-profile JSON does not re-parse: %s" e
  in
  match Obs.Selfprof.rows_of_json reparsed with
  | Error e -> Alcotest.failf "rows_of_json: %s" e
  | Ok rows ->
    let orig = selfprof_rows sp in
    check ti "row count" (List.length orig) (List.length rows);
    List.iter2
      (fun (a : Obs.Selfprof.row) (b : Obs.Selfprof.row) ->
        check ts "path" a.path b.path;
        check ts "name" a.name b.name;
        check ti "count" a.count b.count;
        check tb "host close" true (Float.abs (a.host_s -. b.host_s) < 1e-6);
        check tb "alloc close" true (Float.abs (a.alloc_words -. b.alloc_words) < 1.0))
      orig rows;
    (* Junk input errors instead of raising. *)
    (match Obs.Selfprof.rows_of_json (Obs.Json.String "nope") with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "rows_of_json must reject non-profiles")

(* --- Recorder integration ----------------------------------------- *)

let test_recorder_selfprof_integration () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.with_span r "cold" (fun () -> ());
  check ti "disabled spans leave no paths" 0
    (List.length (selfprof_rows (Obs.Recorder.selfprof r)));
  Obs.Recorder.enable_self_profile r;
  Obs.Recorder.with_span r "warm" (fun () -> spin ());
  check (Alcotest.list ts) "enabled spans recorded" [ "warm" ]
    (List.map
       (fun (row : Obs.Selfprof.row) -> row.path)
       (selfprof_rows (Obs.Recorder.selfprof r)))

let suite =
  [
    Alcotest.test_case "hostclock: monotone" `Quick test_hostclock_monotone;
    Alcotest.test_case "hostclock: gc delta monotone" `Quick test_gc_delta_monotone;
    Alcotest.test_case "flight: ring wraparound" `Quick test_flight_wraparound;
    Alcotest.test_case "flight: dump deterministic" `Quick test_flight_dump_deterministic;
    Alcotest.test_case "selfprof: disabled is inert" `Quick
      test_disabled_profiler_records_nothing;
    Alcotest.test_case "selfprof: paths and counts" `Quick test_paths_and_counts;
    Alcotest.test_case "selfprof: exception safety" `Quick test_exception_closes_frame;
    Alcotest.test_case "selfprof: folded structure deterministic" `Quick
      test_folded_deterministic_modulo_weights;
    Alcotest.test_case "selfprof: hotspot ranking" `Quick test_hotspot_ranking;
    Alcotest.test_case "selfprof: JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "selfprof: recorder integration" `Quick
      test_recorder_selfprof_integration;
  ]
