(* Nominate the hottest blocks covering this fraction of all sampled
   misses (prefetching rare sites wastes code bytes), ignoring blocks
   with fewer samples than [min_samples]. *)
let coverage = 0.9

let min_samples = 2

type result = { sites : (string * int) list; sampled_misses : int; covered_misses : int }

let analyze ~(pebs : Perfmon.Pebs.profile) ~(binary : Linker.Binary.t) =
  (* Attribute miss samples to machine blocks via the address map. *)
  let empty = Perfmon.Lbr.create_profile () in
  let dcfg = Dcfg.build ~profile:empty ~binary in
  let per_block : (string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let total = ref 0 in
  Support.Itab.iter
    (fun addr count ->
      total := !total + count;
      (* The sample records the address after the load instruction. *)
      match Dcfg.find_block dcfg (addr - 1) with
      | Some b -> (
        let key = (b.owner, b.bb) in
        match Hashtbl.find_opt per_block key with
        | Some c -> Hashtbl.replace per_block key (c + count)
        | None -> Hashtbl.add per_block key count)
      | None -> ())
    pebs.misses;
  let ranked =
    Hashtbl.fold (fun key c acc -> (key, c) :: acc) per_block []
    |> List.sort (fun (ka, a) (kb, b) ->
           let c = compare b a in
           if c <> 0 then c else compare ka kb)
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
