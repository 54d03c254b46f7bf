(* Nominate the hottest blocks covering this fraction of all sampled
   misses (prefetching rare sites wastes code bytes), ignoring blocks
   with fewer samples than [min_samples]. *)
let coverage = 0.9

let min_samples = 2

type result = { sites : (string * int) list; sampled_misses : int; covered_misses : int }

let analyze ~(pebs : Perfmon.Pebs.profile) ~(binary : Linker.Binary.t) =
  (* Attribute miss samples to machine blocks via the address map. *)
  let idx = Dcfg.interval_index binary in
  let misses = Array.make (Array.length idx.mblocks) 0 in
  let total = ref 0 in
  Support.Itab.iter
    (fun addr count ->
      total := !total + count;
      (* The sample records the address after the load instruction. *)
      match Dcfg.find_in idx (addr - 1) with
      | Some (i, _) -> misses.(i) <- misses.(i) + count
      | None -> ())
    pebs.misses;
  let ranked = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let b = idx.mblocks.(i) in
        ranked := ((b.func, b.block), c) :: !ranked
      end)
    misses;
  let ranked =
    List.sort
      (fun (ka, a) (kb, b) ->
        let c = compare b a in
        if c <> 0 then c else compare ka kb)
      !ranked
  in
  let budget = int_of_float (coverage *. float_of_int !total) in
  let rec take acc covered = function
    | [] -> (List.rev acc, covered)
    | (key, c) :: rest ->
      if covered >= budget || c < min_samples then (List.rev acc, covered)
      else take (key :: acc) (covered + c) rest
  in
  let sites, covered = take [] 0 ranked in
  { sites; sampled_misses = !total; covered_misses = covered }
