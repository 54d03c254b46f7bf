type piece = { block : int; insts : Isa.t list; is_landing_pad : bool }

type index = {
  bytes : int;
  sizes : int array;
  sites : Isa.t array;
  branch_start : int array;
  pre_bytes : int array;
  pre_count : int array;
}

type t = { func : string; pieces : piece list; index : index }

(* Two walks over the instructions: one counts the sites and branches
   so that the second fills arrays of their exact size. *)
let index_of pieces =
  let n = List.length pieces in
  let nsites = ref 0 and nbranches = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (function
          | Isa.Jcc _ | Isa.Jmp _ ->
            incr nsites;
            incr nbranches
          | Isa.Call _ -> incr nsites
          | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret
          | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> ())
        p.insts)
    pieces;
  let nsites = !nsites and nbranches = !nbranches in
  let sizes = Array.make n 0 in
  let branch_start = Array.make (n + 1) nbranches in
  let sites = Array.make nsites (Isa.Nop 0) in
  let pre_bytes = Array.make nbranches 0 and pre_count = Array.make nbranches 0 in
  let ns = ref 0 and nb = ref 0 and bytes = ref 0 in
  List.iteri
    (fun k p ->
      branch_start.(k) <- !nb;
      let size = ref 0 and run_bytes = ref 0 and run_count = ref 0 in
      List.iter
        (fun i ->
          let sz = Isa.size i in
          size := !size + sz;
          match i with
          | Isa.Jcc _ | Isa.Jmp _ ->
            sites.(!ns) <- i;
            incr ns;
            pre_bytes.(!nb) <- !run_bytes;
            pre_count.(!nb) <- !run_count;
            incr nb;
            run_bytes := 0;
            run_count := 0
          | Isa.Call _ ->
            sites.(!ns) <- i;
            incr ns;
            run_bytes := !run_bytes + sz;
            incr run_count
          | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret
          | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ ->
            run_bytes := !run_bytes + sz;
            incr run_count)
        p.insts;
      sizes.(k) <- !size;
      bytes := !bytes + !size)
    pieces;
  { bytes = !bytes; sizes; sites; branch_start; pre_bytes; pre_count }

let make ~func pieces =
  if pieces = [] then invalid_arg (Printf.sprintf "Fragment.make %s: empty" func);
  { func; pieces; index = index_of pieces }

let byte_size f = f.index.bytes

let piece_offsets f =
  let _, _, rev =
    List.fold_left
      (fun (k, off, acc) p -> (k + 1, off + f.index.sizes.(k), (p, off) :: acc))
      (0, 0, []) f.pieces
  in
  List.rev rev
