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
      shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* --- Pqueue ------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Support.Pqueue.create () in
  List.iter (fun (p, k) -> Support.Pqueue.add q ~priority:p k)
    [ (1.0, 10); (5.0, 11); (3.0, 12); (4.0, 13); (2.0, 14) ];
  let order = ref [] in
  while Support.Pqueue.length q > 0 do
    order := Support.Pqueue.pop_max q :: !order
  done;
  check Alcotest.(list int) "descending priority" [ 11; 13; 12; 14; 10 ] (List.rev !order)

let test_pqueue_ties_fifo () =
  let q = Support.Pqueue.create () in
  Support.Pqueue.add q ~priority:1.0 7;
  Support.Pqueue.add q ~priority:1.0 3;
  check ti "insertion order breaks ties" 7 (Support.Pqueue.pop_max q)

(* Drains in descending priority and, among equal priorities (drawn
   from a few values so ties are common), in push order. *)
let pqueue_sorted_law =
  QCheck.Test.make ~count:200 ~name:"pqueue drains sorted"
    QCheck.(list (float_range (-100.) 100.))
    (fun prios ->
      let q = Support.Pqueue.create () in
      List.iteri (fun i p -> Support.Pqueue.add q ~priority:(Float.round (p /. 20.)) i) prios;
      let rec drain acc =
        if Support.Pqueue.length q = 0 then List.rev acc
        else begin
          let k = Support.Pqueue.pop_max q in
          drain ((Float.round (List.nth prios k /. 20.), k) :: acc)
        end
      in
      let got = drain [] in
      let rec sorted = function
        | (p1, k1) :: ((p2, k2) :: _ as rest) -> (p1 > p2 || (p1 = p2 && k1 < k2)) && sorted rest
        | [ _ ] | [] -> true
      in
      sorted got && List.length got = List.length prios)

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

(* Digests fed by their hex, as action keys are, in two orders. *)
let test_digest_concat_order () =
  let module D = Support.Digesting in
  let a = D.of_string "a" and b = D.of_string "b" in
  let joined x y =
    let st = D.init () in
    D.add_hex st x;
    D.add_hex st y;
    D.finish st
  in
  check tb "order matters" false (D.equal (joined a b) (joined b a))

(* Int64 reference for the FNV-1a streams in Support.Digesting. The
   production streams advance together in one unboxed state (an
   earlier version ran them in 32-bit halves on native ints); digest
   hex feeds cache keys and fault plans, so it must stay bit-identical
   to this original formulation. *)
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

(* --- Streaming digests ---------------------------------------------- *)

let streamed_hex feed =
  let st = Support.Digesting.init () in
  feed st;
  Support.Digesting.to_hex (Support.Digesting.finish st)

let string_hex s = Support.Digesting.to_hex (Support.Digesting.of_string s)

(* Each writer feeds the bytes of the string form it stands for. *)
let test_digest_writers () =
  let module D = Support.Digesting in
  List.iter
    (fun n ->
      check ts (string_of_int n) (string_hex (string_of_int n))
        (streamed_hex (fun st -> D.add_int st n)))
    [ 0; 7; 10; 99; 100; -1; -10; max_int; min_int ];
  List.iter
    (fun v ->
      let b = Buffer.create 8 in
      Buffer.add_int64_le b v;
      check ts (Int64.to_string v) (string_hex (Buffer.contents b))
        (streamed_hex (fun st -> D.add_int64_le st v)))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x0102030405060708L; Int64.bits_of_float 0.3 ];
  List.iter
    (fun s ->
      let d = D.of_string s in
      check ts ("hex of " ^ s) (string_hex (D.to_hex d)) (streamed_hex (fun st -> D.add_hex st d)))
    [ ""; "a"; "b"; "propeller-backend-v1" ];
  let a = D.of_string "a" and b = D.of_string "b" in
  check ts "joined hex" (string_hex (D.to_hex a ^ D.to_hex b))
    (streamed_hex (fun st ->
         D.add_hex st a;
         D.add_hex st b))

(* Feeding [s] in arbitrary pieces, single bytes through [add_char],
   digests like [of_string s]; [finish] leaves the state as it was. *)
let digest_chunking_law =
  QCheck.Test.make ~count:500
    ~name:"digesting: any chunking through add_string/add_char = of_string"
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (small_list small_nat))
    (fun (s, cuts) ->
      let module D = Support.Digesting in
      let st = D.init () in
      let n = String.length s and pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (n - !pos) in
          if len = 1 then D.add_char st s.[!pos] else D.add_string st (String.sub s !pos len);
          pos := !pos + len)
        cuts;
      while !pos < n do
        D.add_char st s.[!pos];
        incr pos
      done;
      let d = D.finish st in
      D.equal d (D.finish st) && D.equal d (D.of_string s))

let fixed2_exact x =
  String.equal
    (streamed_hex (fun st -> Support.Digesting.add_fixed2 st x))
    (string_hex (Printf.sprintf "%.2f" x))

(* Where a fast [%.2f] goes wrong: the sign of zero and of small
   negatives ([-0.00]), every multiple of 0.005 near zero and one ulp
   either side of it, exact binary midpoints ([0.125] prints [0.12]),
   magnitudes around the fast path's bound, and non-finite values. *)
let fixed2_edges =
  let steps =
    List.concat_map
      (fun k ->
        let a = float_of_int k *. 0.005 and b = float_of_int k /. 200.0 in
        [ a; Float.pred a; Float.succ a; b; Float.pred b; Float.succ b ])
      (List.init 4001 (fun i -> i - 2000))
  in
  let midpoints = List.init 1601 (fun i -> float_of_int (i - 800) /. 8.0) in
  [
    0.0; -0.0; -0.001; -0.004; -0.0049999; -1e-300; 5e-324; -5e-324; Float.min_float;
    Float.nan; Float.infinity; Float.neg_infinity; 1e12 +. 0.005; 9.999999999999e12; 1e13;
    -1e13; 1e15 +. 0.125; 1e300; Float.max_float; -.Float.max_float;
  ]
  @ steps @ midpoints

let test_fixed2_edges () =
  List.iter
    (fun x -> check tb (Printf.sprintf "%h prints %.2f" x x) true (fixed2_exact x))
    fixed2_edges

let fixed2_law =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (3, float);
          (3, float_range (-1000.0) 1000.0);
          (2, float_range (-0.01) 0.01);
          (2, map (fun k -> float_of_int k /. 200.0) (int_range (-200_000) 200_000));
          (1, map (fun k -> Float.succ (float_of_int k *. 0.005)) (int_range (-200_000) 200_000));
          (1, map (fun k -> Float.pred (float_of_int k *. 0.005)) (int_range (-200_000) 200_000));
          (1, map (fun k -> float_of_int k /. 8.0) (int_range (-8000) 8000));
          (1, oneofl [ -0.0; 0.0; -0.001; Float.nan; Float.infinity; Float.neg_infinity ]);
        ])
  in
  QCheck.Test.make ~count:20_000 ~name:"digesting: add_fixed2 = Printf %.2f"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    fixed2_exact

let test_stats () =
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

(* The stddev a histogram summary reports for observations [xs]. *)
let stddev xs =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "h") xs;
  summary_field m "stddev"

let test_stats_stddev () =
  check tf "singleton" 0.0 (stddev [ 5.0 ]);
  check tf "constant" 0.0 (stddev [ 5.0; 5.0; 5.0 ]);
  (* Population stddev of {2,4,4,4,5,5,7,9} is exactly 2. *)
  check tf "known" 2.0 (stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  check tb "shift invariant" true
    (abs_float (stddev [ 1.0; 2.0; 3.0 ] -. stddev [ 101.0; 102.0; 103.0 ]) < 1e-9)

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

(* --- Isearch ----------------------------------------------------- *)

(* On sorted, disjoint intervals with no zero-size one, the midpoint
   search has no miss: it finds exactly what a linear scan finds, for
   every probe — the first and last byte of each interval, the bytes
   just outside it, and arbitrary addresses. *)
let isearch_linear_law =
  QCheck.Test.make ~count:300 ~name:"isearch covering equals a linear scan"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 60) (pair (int_bound 8) (int_range 1 9)))
        (list_of_size Gen.(0 -- 40) (int_bound 700)))
    (fun (layout, extra) ->
      let next = ref 0 in
      let spans =
        List.map
          (fun (gap, size) ->
            let addr = !next + gap in
            next := addr + size;
            (addr, size))
          layout
      in
      let addrs = Array.of_list (List.map fst spans) in
      let sizes = Array.of_list (List.map snd spans) in
      let linear p =
        let found = ref (-1) in
        Array.iteri (fun i a -> if !found < 0 && a <= p && p < a + sizes.(i) then found := i) addrs;
        !found
      in
      let probes =
        Array.of_list
          (extra
          @ List.concat_map (fun (a, size) -> [ a - 1; a; a + size - 1; a + size ]) spans)
      in
      Array.for_all (fun p -> Support.Isearch.covering ~addrs ~sizes p = linear p) probes
      && Support.Isearch.covering_batch ~addrs ~sizes probes = Array.map linear probes)

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
    QCheck_alcotest.to_alcotest pqueue_sorted_law;
    QCheck_alcotest.to_alcotest shuffle_permutation_law;
    Alcotest.test_case "digest: stable" `Quick test_digest_stable;
    Alcotest.test_case "digest: distinct" `Quick test_digest_distinct;
    Alcotest.test_case "digest: concat order" `Quick test_digest_concat_order;
    Alcotest.test_case "digest: Int64 reference identity" `Quick test_digest_int64_reference;
    QCheck_alcotest.to_alcotest digest_reference_law;
    Alcotest.test_case "digest: streaming writers = their string forms" `Quick
      test_digest_writers;
    QCheck_alcotest.to_alcotest digest_chunking_law;
    Alcotest.test_case "digest: add_fixed2 = Printf %.2f at the edges" `Quick test_fixed2_edges;
    QCheck_alcotest.to_alcotest fixed2_law;
    Alcotest.test_case "stats: basics" `Quick test_stats;
    Alcotest.test_case "stats: geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats: stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats: median" `Quick test_stats_median;
    Alcotest.test_case "packed: bounds" `Quick test_packed_bounds;
    QCheck_alcotest.to_alcotest packed_roundtrip_law;
    QCheck_alcotest.to_alcotest packed_order_law;
    QCheck_alcotest.to_alcotest packed_tuple_hash_law;
    QCheck_alcotest.to_alcotest packed_tbl_order_law;
    QCheck_alcotest.to_alcotest isearch_linear_law;
  ]
