open Testutil

let blk func block = Isa.Target.Block { func; block }

let test_sizes () =
  check ti "alu" 7 (Isa.size (Isa.Alu 7));
  check ti "short jcc" 2 (Isa.size (Isa.Jcc { cond = Isa.Cond.Eq; target = blk "f" 1; encoding = Isa.Short }));
  check ti "long jcc" 6 (Isa.size (Isa.Jcc { cond = Isa.Cond.Eq; target = blk "f" 1; encoding = Isa.Long }));
  check ti "short jmp" 2 (Isa.size (Isa.Jmp { target = blk "f" 1; encoding = Isa.Short }));
  check ti "long jmp" 5 (Isa.size (Isa.Jmp { target = blk "f" 1; encoding = Isa.Long }));
  check ti "call" 5 (Isa.size (Isa.Call (Isa.Target.Func "g")));
  check ti "ret" 1 (Isa.size Isa.Ret);
  check ti "icall" 3 (Isa.size Isa.IndirectCall);
  check ti "ijmp" 3 (Isa.size Isa.IndirectJmp);
  check ti "data" 24 (Isa.size (Isa.InlineData 24))

let test_cond_negate_involution () =
  List.iter
    (fun c -> check tb "double negate" true (c = Isa.Cond.negate (Isa.Cond.negate c)))
    [ Isa.Cond.Eq; Isa.Cond.Ne; Isa.Cond.Lt; Isa.Cond.Ge; Isa.Cond.Le; Isa.Cond.Gt ];
  List.iter
    (fun c -> check tb "negate changes" false (c = Isa.Cond.negate c))
    [ Isa.Cond.Eq; Isa.Cond.Ne; Isa.Cond.Lt; Isa.Cond.Ge; Isa.Cond.Le; Isa.Cond.Gt ]

let test_fits_short () =
  check tb "127" true (Isa.fits_short 127);
  check tb "-128" true (Isa.fits_short (-128));
  check tb "128" false (Isa.fits_short 128);
  check tb "-129" false (Isa.fits_short (-129));
  check tb "0" true (Isa.fits_short 0)

let test_target_symbols () =
  check ts "block symbol" "jmp.l f#3" (Isa.to_string (Isa.Jmp { target = blk "f" 3; encoding = Isa.Long }));
  check ts "func symbol" "call f" (Isa.to_string (Isa.Call (Isa.Target.Func "f")));
  check ts "short branch" "jne g#0"
    (Isa.to_string (Isa.Jcc { cond = Isa.Cond.Ne; target = blk "g" 0; encoding = Isa.Short }))

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "cond negate" `Quick test_cond_negate_involution;
    Alcotest.test_case "fits_short bounds" `Quick test_fits_short;
    Alcotest.test_case "target symbols" `Quick test_target_symbols;
  ]
