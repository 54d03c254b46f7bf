type attrs = { exported : bool; has_exceptions : bool; has_inline_asm : bool }

type t = { name : string; blocks : Block.t array; attrs : attrs }

let default_attrs = { exported = false; has_exceptions = false; has_inline_asm = false }

let make ~name ?(attrs = default_attrs) blocks =
  let n = Array.length blocks in
  if n = 0 then invalid_arg (Printf.sprintf "Func.make %s: no blocks" name);
  Array.iteri
    (fun i (b : Block.t) ->
      if b.id <> i then
        invalid_arg (Printf.sprintf "Func.make %s: block %d has id %d" name i b.id);
      List.iter
        (fun succ ->
          if succ < 0 || succ >= n then
            invalid_arg
              (Printf.sprintf "Func.make %s: block %d targets out-of-range block %d" name i succ))
        (Term.successors b.term))
    blocks;
  { name; blocks; attrs }

let entry f = f.blocks.(0)

let block f i = f.blocks.(i)

let num_blocks f = Array.length f.blocks

let code_bytes f = Array.fold_left (fun acc b -> acc + Block.body_bytes b) 0 f.blocks

let calls f = Array.to_list f.blocks |> List.concat_map Block.calls

(* The bytes [pp] prints through [Format.asprintf], without the
   formatter: in these vertical boxes every break is a newline indented
   to its box (2 for blocks, 4 for a block's lines), and no text is
   ever wrapped. *)
let render b f =
  Buffer.add_string b "func ";
  Buffer.add_string b f.name;
  Buffer.add_string b (Printf.sprintf " (%d blocks):\n  " (Array.length f.blocks));
  Array.iter
    (fun (blk : Block.t) ->
      Buffer.add_char b '.';
      Text.add_int b blk.id;
      Buffer.add_string b (if blk.is_landing_pad then " (lp):\n    " else ":\n    ");
      List.iter
        (fun i ->
          Inst.render b i;
          Buffer.add_string b "\n    ")
        blk.body;
      Term.render b blk.term;
      Buffer.add_string b "\n  ")
    f.blocks

let pp fmt f =
  Format.fprintf fmt "@[<v 2>func %s (%d blocks):@ " f.name (Array.length f.blocks);
  Array.iter (fun b -> Format.fprintf fmt "%a@ " Block.pp b) f.blocks;
  Format.fprintf fmt "@]"
