let to_text syms =
  let buf = Buffer.create (32 * (List.length syms + 1)) in
  Buffer.add_string buf "# symbol ordering file (ld_prof)\n";
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    syms;
  Buffer.contents buf
