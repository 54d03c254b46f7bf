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

let block f i = f.blocks.(i)

let num_blocks f = Array.length f.blocks

let code_bytes f = Array.fold_left (fun acc b -> acc + Block.body_bytes b) 0 f.blocks

let calls f = Array.to_list f.blocks |> List.concat_map Block.calls

module D = Support.Digesting

let rec feed_body st = function
  | [] -> ()
  | i :: rest ->
    Inst.feed st i;
    D.add_string st "\n    ";
    feed_body st rest

(* The bytes [pp] prints through [Format.asprintf], fed straight into a
   digest: in these vertical boxes every break is a newline indented to
   its box (2 for blocks, 4 for a block's lines), and no text is ever
   wrapped. *)
let feed st f =
  D.add_string st "func ";
  D.add_string st f.name;
  D.add_string st " (";
  D.add_int st (Array.length f.blocks);
  D.add_string st " blocks):\n  ";
  for b = 0 to Array.length f.blocks - 1 do
    let blk = f.blocks.(b) in
    D.add_char st '.';
    D.add_int st blk.id;
    D.add_string st (if blk.is_landing_pad then " (lp):\n    " else ":\n    ");
    feed_body st blk.body;
    Term.feed st blk.term;
    D.add_string st "\n  "
  done

let pp fmt f =
  Format.fprintf fmt "@[<v 2>func %s (%d blocks):@ " f.name (Array.length f.blocks);
  Array.iter (fun b -> Format.fprintf fmt "%a@ " Block.pp b) f.blocks;
  Format.fprintf fmt "@]"
