(* Block positions as the link resolved them before it numbered each
   function once and sized its arrays exactly, kept here only as the
   oracle that [Linker.Binary.block_positions] must agree with. The
   code sections are gathered in input order into a list, ordered by a
   rank table of the ordering file, and every piece is registered in a
   string-keyed table of per-function arrays grown by doubling. *)

let code_sections objs =
  List.concat_map
    (fun (o : Objfile.File.t) ->
      List.filter_map
        (fun (s : Objfile.Section.t) ->
          match s.contents with
          | Objfile.Section.Code frag -> Some (s.symbol, frag)
          | Objfile.Section.Map _ | Objfile.Section.Raw _ -> None)
        o.sections)
    objs

let order_text_sections (options : Linker.Link.options) all =
  match options.ordering with
  | None -> all
  | Some syms ->
    let rank = Hashtbl.create (List.length syms) in
    List.iteri (fun i s -> if not (Hashtbl.mem rank s) then Hashtbl.add rank s i) syms;
    let ranked, unranked =
      List.partition_map
        (fun ((symbol, _) as s) ->
          match Option.bind symbol (Hashtbl.find_opt rank) with
          | Some r -> Either.Left (r, s)
          | None -> Either.Right s)
        all
    in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) ranked) @ unranked

(* Function -> its pieces' layout positions, indexed by block id, [-1]
   marking unused slots; an array may run past the largest id. *)
let positions options objs =
  let positions : (string, int array) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  List.iter
    (fun (_, (frag : Objfile.Fragment.t)) ->
      let func = frag.func in
      let by_block = ref (Option.value (Hashtbl.find_opt positions func) ~default:[||]) in
      List.iter
        (fun (piece : Objfile.Fragment.piece) ->
          let block = piece.block in
          let n = Array.length !by_block in
          if block >= n then begin
            let grown = Array.make (max (2 * n) (block + 1)) (-1) in
            Array.blit !by_block 0 grown 0 n;
            by_block := grown
          end;
          !by_block.(block) <- !next;
          incr next)
        frag.pieces;
      Hashtbl.replace positions func !by_block)
    (order_text_sections options (code_sections objs));
  positions
