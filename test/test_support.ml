open Testutil

(* --- Rng --------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Support.Rng.create 42L and b = Support.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Support.Rng.next a) (Support.Rng.next b)
  done

let test_rng_split_independent () =
  let parent = Support.Rng.create 42L in
  let c1 = Support.Rng.split parent 1 and c2 = Support.Rng.split parent 2 in
  check tb "children differ" true (Support.Rng.next c1 <> Support.Rng.next c2);
  (* Splitting must not advance the parent. *)
  let fresh = Support.Rng.create 42L in
  check Alcotest.int64 "parent unperturbed" (Support.Rng.next fresh) (Support.Rng.next parent)

let test_rng_int_range () =
  let rng = Support.Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Support.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Support.Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Support.Rng.int rng 0))

let test_rng_float_range () =
  let rng = Support.Rng.create 2L in
  for _ = 1 to 10_000 do
    let v = Support.Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "out of range: %f" v
  done

let test_rng_bool_bias () =
  let rng = Support.Rng.create 3L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Support.Rng.bool rng 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check tb "rate near 0.25" true (rate > 0.22 && rate < 0.28)

let test_rng_geometric_mean () =
  let rng = Support.Rng.create 4L in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Support.Rng.geometric rng 0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* Expected mean of a geometric with p = 0.25 is 4. *)
  check tb "mean near 4" true (mean > 3.6 && mean < 4.4)

let test_hash_choice_stateless () =
  check tb "same keys same answer" true
    (Support.Rng.hash_choice 5 9 0.5 = Support.Rng.hash_choice 5 9 0.5);
  let hits = ref 0 in
  for k = 1 to 10_000 do
    if Support.Rng.hash_choice 77 k 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  check tb "bias respected" true (rate > 0.27 && rate < 0.33)

let shuffle_permutation_law =
  QCheck.Test.make ~count:200 ~name:"shuffle is a permutation"
    QCheck.(list small_int)
    (fun xs ->
      let arr = Array.of_list xs in
      let rng = Support.Rng.create 11L in
      Support.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* --- Pqueue ------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Support.Pqueue.create () in
  List.iter (fun (p, v) -> ignore (Support.Pqueue.add q ~priority:p v))
    [ (1.0, "a"); (5.0, "b"); (3.0, "c"); (4.0, "d"); (2.0, "e") ];
  let order = ref [] in
  let rec drain () =
    match Support.Pqueue.pop_max q with
    | Some (v, _) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "descending priority" [ "b"; "d"; "c"; "e"; "a" ]
    (List.rev !order)

let test_pqueue_ties_fifo () =
  let q = Support.Pqueue.create () in
  ignore (Support.Pqueue.add q ~priority:1.0 "first");
  ignore (Support.Pqueue.add q ~priority:1.0 "second");
  (match Support.Pqueue.pop_max q with
  | Some (v, _) -> check ts "insertion order breaks ties" "first" v
  | None -> Alcotest.fail "empty")

let test_pqueue_update () =
  let q = Support.Pqueue.create () in
  let h = Support.Pqueue.add q ~priority:1.0 "low" in
  ignore (Support.Pqueue.add q ~priority:5.0 "high");
  Support.Pqueue.update q h ~priority:10.0;
  (match Support.Pqueue.pop_max q with
  | Some (v, p) ->
    check ts "updated wins" "low" v;
    check tf "priority" 10.0 p
  | None -> Alcotest.fail "empty")

let test_pqueue_remove () =
  let q = Support.Pqueue.create () in
  let h = Support.Pqueue.add q ~priority:9.0 "gone" in
  ignore (Support.Pqueue.add q ~priority:1.0 "stays");
  Support.Pqueue.remove q h;
  check tb "handle dead" false (Support.Pqueue.mem q h);
  (match Support.Pqueue.pop_max q with
  | Some (v, _) -> check ts "survivor" "stays" v
  | None -> Alcotest.fail "empty");
  Alcotest.check_raises "double remove" (Invalid_argument "Pqueue.remove: dead handle")
    (fun () -> Support.Pqueue.remove q h)

(* The handle index is a growable array: handles issued past its first
   capacity, and updates and removals after it grew, must behave like
   the first few; [mem] is total, false for any handle the queue does
   not hold. *)
let test_pqueue_handle_index () =
  let q = Support.Pqueue.create () in
  let handles = Array.init 100 (fun i -> Support.Pqueue.add q ~priority:(float_of_int i) i) in
  check tb "late handle live" true (Support.Pqueue.mem q handles.(99));
  Support.Pqueue.update q handles.(3) ~priority:1000.0;
  Support.Pqueue.remove q handles.(99);
  Support.Pqueue.remove q handles.(50);
  check tb "removed late handle dead" false (Support.Pqueue.mem q handles.(99));
  Support.Pqueue.update q handles.(98) ~priority:(-1.0);
  (match Support.Pqueue.pop_max q with
  | Some (v, p) ->
    check ti "updated early entry first" 3 v;
    check tf "its priority" 1000.0 p
  | None -> Alcotest.fail "empty");
  check tb "popped handle dead" false (Support.Pqueue.mem q handles.(3));
  check ti "length" 97 (Support.Pqueue.length q);
  let rec drain last =
    match Support.Pqueue.pop_max q with Some (v, _) -> drain v | None -> last
  in
  check ti "demoted late entry last" 98 (drain (-1));
  (* Handles from a longer-lived queue were never issued by [q]. *)
  let other = Support.Pqueue.create () in
  let foreign = Array.init 300 (fun i -> Support.Pqueue.add other ~priority:0.0 i) in
  check tb "never-issued handle" false (Support.Pqueue.mem q foreign.(299));
  (* Handles are ints underneath; forge a negative one. *)
  check tb "negative handle" false (Support.Pqueue.mem q (Obj.magic (-1) : Support.Pqueue.handle));
  Alcotest.check_raises "update never-issued" (Invalid_argument "Pqueue.update: dead handle")
    (fun () -> Support.Pqueue.update q foreign.(299) ~priority:1.0)

let pqueue_sorted_law =
  QCheck.Test.make ~count:200 ~name:"pqueue drains sorted"
    QCheck.(list (pair (float_range (-100.) 100.) small_int))
    (fun items ->
      let q = Support.Pqueue.create () in
      List.iter (fun (p, v) -> ignore (Support.Pqueue.add q ~priority:p v)) items;
      let rec drain acc =
        match Support.Pqueue.pop_max q with
        | Some (_, p) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let prios = drain [] in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a >= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted prios && List.length prios = List.length items)

let pqueue_update_law =
  QCheck.Test.make ~count:200 ~name:"pqueue respects updates"
    QCheck.(list (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun items ->
      let q = Support.Pqueue.create () in
      let handles = List.map (fun (p, _) -> Support.Pqueue.add q ~priority:p ()) items in
      List.iter2 (fun h (_, p') -> Support.Pqueue.update q h ~priority:p') handles items;
      let rec drain acc =
        match Support.Pqueue.pop_max q with Some (_, p) -> drain (p :: acc) | None -> acc
      in
      let got = List.sort compare (drain []) in
      let want = List.sort compare (List.map snd items) in
      got = want)

(* --- Digesting / Stats ------------------------------------------- *)

let test_digest_stable () =
  let a = Support.Digesting.of_string "hello" in
  let b = Support.Digesting.of_string "hello" in
  check tb "equal digests" true (Support.Digesting.equal a b);
  check ts "hex stable" (Support.Digesting.to_hex a) (Support.Digesting.to_hex b)

let test_digest_distinct () =
  let a = Support.Digesting.of_string "hello" in
  let b = Support.Digesting.of_string "hellp" in
  check tb "different content different digest" false (Support.Digesting.equal a b)

let test_digest_concat_order () =
  let a = Support.Digesting.of_string "a" and b = Support.Digesting.of_string "b" in
  check tb "order matters" false
    (Support.Digesting.equal (Support.Digesting.concat [ a; b ]) (Support.Digesting.concat [ b; a ]))

(* Int64 reference for the FNV-1a streams in Support.Digesting. The
   production loop runs in 32-bit halves on native ints (the boxed
   Int64 version dominated warm-relink allocation); digest hex feeds
   cache keys and fault plans, so it must stay bit-identical to this
   original formulation. *)
let fnv64_ref ~offset s =
  let h = ref offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let digest_hex_ref s =
  Printf.sprintf "%016Lx%016Lx"
    (fnv64_ref ~offset:0xCBF29CE484222325L s)
    (fnv64_ref ~offset:0x84222325CBF29CE4L (s ^ "\x01"))

let test_digest_int64_reference () =
  let cases = ref [ ""; "a"; "abc"; "layout-v1|main|fw=1024"; String.make 5000 '\xff' ] in
  for i = 0 to 60 do
    cases :=
      String.init (i * 7 mod 300) (fun j -> Char.chr ((i * 31 + j * 17) mod 256)) :: !cases
  done;
  List.iter
    (fun s ->
      check ts "hex matches Int64 FNV-1a reference" (digest_hex_ref s)
        (Support.Digesting.to_hex (Support.Digesting.of_string s)))
    !cases

let digest_reference_law =
  QCheck.Test.make ~count:500 ~name:"digesting: 32-bit-half FNV == Int64 FNV-1a"
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s ->
      String.equal (digest_hex_ref s)
        (Support.Digesting.to_hex (Support.Digesting.of_string s)))

let test_stats () =
  check tf "mean" 2.0 (Support.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check tf "sum" 6.0 (Support.Stats.sum [ 1.0; 2.0; 3.0 ]);
  check tf "ratio" 50.0 (Support.Stats.ratio_pct 3.0 2.0);
  check tf "p50" 2.0 (Support.Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  check tb "geomean" true (abs_float (Support.Stats.geomean [ 1.0; 4.0 ] -. 2.0) < 1e-9)

let test_stats_geomean () =
  check tf "empty" 0.0 (Support.Stats.geomean []);
  check tf "singleton" 3.0 (Support.Stats.geomean [ 3.0 ]);
  check tb "known" true (abs_float (Support.Stats.geomean [ 2.0; 8.0 ] -. 4.0) < 1e-9);
  check tb "three-way" true (abs_float (Support.Stats.geomean [ 1.0; 10.0; 100.0 ] -. 10.0) < 1e-9);
  (* A zero (or negative) factor collapses the product: geomean is 0. *)
  check tf "zero element" 0.0 (Support.Stats.geomean [ 0.0; 4.0; 9.0 ]);
  check tf "negative element" 0.0 (Support.Stats.geomean [ -2.0; 4.0 ]);
  (* Scale equivariance: geomean (k*xs) = k * geomean xs. *)
  check tb "scale equivariant" true
    (abs_float
       (Support.Stats.geomean [ 3.0; 12.0 ] -. (3.0 *. Support.Stats.geomean [ 1.0; 4.0 ]))
    < 1e-9)

let test_stats_stddev () =
  check tf "empty" 0.0 (Support.Stats.stddev []);
  check tf "constant" 0.0 (Support.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  (* Population stddev of {2,4,4,4,5,5,7,9} is exactly 2. *)
  check tf "known" 2.0 (Support.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  check tb "shift invariant" true
    (abs_float
       (Support.Stats.stddev [ 1.0; 2.0; 3.0 ]
       -. Support.Stats.stddev [ 101.0; 102.0; 103.0 ])
    < 1e-9)

let test_stats_median () =
  check tf "empty" 0.0 (Support.Stats.median []);
  check tf "singleton" 7.0 (Support.Stats.median [ 7.0 ]);
  check tf "odd unsorted" 2.0 (Support.Stats.median [ 3.0; 1.0; 2.0 ]);
  check tf "even midpoint" 2.5 (Support.Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  (* Median is robust to one huge outlier; mean is not. *)
  check tf "outlier robust" 2.0 (Support.Stats.median [ 1.0; 2.0; 1.0e9 ])

(* --- Packed keys (ISSUE 9) ---------------------------------------- *)

(* The packed key must round-trip every address pair up to the maximum
   text-segment size, and its natural int order must agree with the
   lexicographic pair order the tuple keys had. *)
let packed_roundtrip_law =
  QCheck.Test.make ~count:1000 ~name:"packed (src, dst) key round-trips"
    QCheck.(
      pair (int_range 0 Support.Packed.max_addr) (int_range 0 Support.Packed.max_addr))
    (fun (src, dst) ->
      let key = Support.Packed.pack ~src ~dst in
      key >= 0 && Support.Packed.src key = src && Support.Packed.dst key = dst)

let packed_order_law =
  QCheck.Test.make ~count:1000 ~name:"packed key order = lexicographic pair order"
    QCheck.(
      quad
        (int_range 0 Support.Packed.max_addr)
        (int_range 0 Support.Packed.max_addr)
        (int_range 0 Support.Packed.max_addr)
        (int_range 0 Support.Packed.max_addr))
    (fun (s1, d1, s2, d2) ->
      compare (Support.Packed.pack ~src:s1 ~dst:d1) (Support.Packed.pack ~src:s2 ~dst:d2)
      = compare (s1, d1) (s2, d2))

let packed_tuple_hash_law =
  QCheck.Test.make ~count:2000 ~name:"packed tuple_hash = Hashtbl.hash of the pair"
    QCheck.(
      pair
        (oneof [ int_range 0 4096; int_range 0 Support.Packed.max_addr ])
        (oneof [ int_range 0 4096; int_range 0 Support.Packed.max_addr ]))
    (fun (src, dst) ->
      Support.Packed.tuple_hash (Support.Packed.pack ~src ~dst) = Hashtbl.hash (src, dst))

(* Same replace/remove sequence into a tuple-keyed Hashtbl and a
   Packed.Tbl: iteration must visit the keys in the same order, through
   resizes. *)
let packed_tbl_order_law =
  QCheck.Test.make ~count:100 ~name:"Packed.Tbl iterates like a tuple-keyed Hashtbl"
    QCheck.(list (triple bool (int_range 0 60) (int_range 0 60)))
    (fun ops ->
      let tuples = Hashtbl.create 4 and packed = Support.Packed.Tbl.create 4 in
      List.iter
        (fun (add, a, b) ->
          let k = Support.Packed.pack ~src:a ~dst:b in
          if add then begin
            Hashtbl.replace tuples (a, b) ();
            Support.Packed.Tbl.replace packed k ()
          end
          else begin
            Hashtbl.remove tuples (a, b);
            Support.Packed.Tbl.remove packed k
          end)
        ops;
      let seen_tuples = Hashtbl.fold (fun k () acc -> k :: acc) tuples [] in
      let seen_packed =
        Support.Packed.Tbl.fold
          (fun k () acc -> (Support.Packed.src k, Support.Packed.dst k) :: acc)
          packed []
      in
      seen_tuples = seen_packed)

let test_packed_bounds () =
  check ti "max_addr round-trips" Support.Packed.max_addr
    (Support.Packed.src
       (Support.Packed.pack ~src:Support.Packed.max_addr ~dst:Support.Packed.max_addr));
  let rejects name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative src" (fun () -> Support.Packed.pack ~src:(-1) ~dst:0);
  rejects "oversized dst" (fun () ->
      Support.Packed.pack ~src:0 ~dst:(Support.Packed.max_addr + 1))

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng: int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: bool bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "rng: geometric mean" `Quick test_rng_geometric_mean;
    Alcotest.test_case "rng: hash_choice stateless" `Quick test_hash_choice_stateless;
    Alcotest.test_case "pqueue: pop order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue: fifo ties" `Quick test_pqueue_ties_fifo;
    Alcotest.test_case "pqueue: update" `Quick test_pqueue_update;
    Alcotest.test_case "pqueue: remove" `Quick test_pqueue_remove;
    Alcotest.test_case "pqueue: handle index growth" `Quick test_pqueue_handle_index;
    QCheck_alcotest.to_alcotest pqueue_sorted_law;
    QCheck_alcotest.to_alcotest shuffle_permutation_law;
    QCheck_alcotest.to_alcotest pqueue_update_law;
    Alcotest.test_case "digest: stable" `Quick test_digest_stable;
    Alcotest.test_case "digest: distinct" `Quick test_digest_distinct;
    Alcotest.test_case "digest: concat order" `Quick test_digest_concat_order;
    Alcotest.test_case "digest: Int64 reference identity" `Quick test_digest_int64_reference;
    QCheck_alcotest.to_alcotest digest_reference_law;
    Alcotest.test_case "stats: basics" `Quick test_stats;
    Alcotest.test_case "stats: geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats: stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats: median" `Quick test_stats_median;
    Alcotest.test_case "packed: bounds" `Quick test_packed_bounds;
    QCheck_alcotest.to_alcotest packed_roundtrip_law;
    QCheck_alcotest.to_alcotest packed_order_law;
    QCheck_alcotest.to_alcotest packed_tuple_hash_law;
    QCheck_alcotest.to_alcotest packed_tbl_order_law;
  ]
