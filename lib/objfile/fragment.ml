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

(* The next free slots of the index's site and branch arrays. *)
type cursor = { mutable site : int; mutable branch : int }

(* Counts the sites and branches of [insts] into [cur]. *)
let rec count cur = function
  | [] -> ()
  | i :: rest ->
    (match (i : Isa.t) with
    | Jcc _ | Jmp _ ->
      cur.site <- cur.site + 1;
      cur.branch <- cur.branch + 1
    | Call _ -> cur.site <- cur.site + 1
    | Alu _ | Load _ | Store _ | IndirectCall | IndirectJmp | Ret | Prefetch | Nop _ | InlineData _
      ->
      ());
    count cur rest

(* Fills the sites and branch runs of one piece's [insts] from [cur]'s
   slots on, and returns the piece's byte size. [run_bytes] and
   [run_count] are the non-branch instructions since the last branch. *)
let rec fill ix cur ~size ~run_bytes ~run_count = function
  | [] -> size
  | i :: rest -> (
    let sz = Isa.size i in
    match (i : Isa.t) with
    | Jcc _ | Jmp _ ->
      ix.sites.(cur.site) <- i;
      cur.site <- cur.site + 1;
      ix.pre_bytes.(cur.branch) <- run_bytes;
      ix.pre_count.(cur.branch) <- run_count;
      cur.branch <- cur.branch + 1;
      fill ix cur ~size:(size + sz) ~run_bytes:0 ~run_count:0 rest
    | Call _ ->
      ix.sites.(cur.site) <- i;
      cur.site <- cur.site + 1;
      fill ix cur ~size:(size + sz) ~run_bytes:(run_bytes + sz) ~run_count:(run_count + 1) rest
    | Alu _ | Load _ | Store _ | IndirectCall | IndirectJmp | Ret | Prefetch | Nop _ | InlineData _
      ->
      fill ix cur ~size:(size + sz) ~run_bytes:(run_bytes + sz) ~run_count:(run_count + 1) rest)

(* Two walks over the instructions: one counts the sites and branches
   so that the second fills arrays of their exact size. Both are
   direct recursions over the lists, so the index's arrays are all
   they allocate. *)
let index_of pieces =
  let n = List.length pieces in
  let cur = { site = 0; branch = 0 } in
  List.iter (fun p -> count cur p.insts) pieces;
  let ix =
    {
      bytes = 0;
      sizes = Array.make n 0;
      sites = Array.make cur.site (Isa.Nop 0);
      branch_start = Array.make (n + 1) cur.branch;
      pre_bytes = Array.make cur.branch 0;
      pre_count = Array.make cur.branch 0;
    }
  in
  cur.site <- 0;
  cur.branch <- 0;
  let bytes = ref 0 in
  List.iteri
    (fun k p ->
      ix.branch_start.(k) <- cur.branch;
      let size = fill ix cur ~size:0 ~run_bytes:0 ~run_count:0 p.insts in
      ix.sizes.(k) <- size;
      bytes := !bytes + size)
    pieces;
  { ix with bytes = !bytes }

let make ~func pieces =
  if pieces = [] then invalid_arg (Printf.sprintf "Fragment.make %s: empty" func);
  { func; pieces; index = index_of pieces }

let byte_size f = f.index.bytes
