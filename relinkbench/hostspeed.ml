(* Host speed. On a shared 2-core host the same relink runs up to a
   third slower for minutes at a time, and CPU time slows with wall
   time, so a timing alone would mostly measure the neighbours. The
   parent therefore times a fixed reference kernel just before and just
   after each child, and scales the child's times to the speed at which
   the kernel takes [nominal_s]. The kernel uses the OCaml standard
   library only, so no change under lib/ can change it: a faster relink
   still reads faster. At --jobs 2 the kernel runs on two domains at once, so a
   second core lost to another tenant slows it as it slows the op. *)

(* Allocation, hashing and sorting, as the relink pipeline does them. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 50_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (i, float_of_int i)
  done;
  let a = Array.init 75_000 (fun i -> (i * 2654435761) land 0xffffff) in
  Array.sort compare a;
  let l = List.rev_map (fun x -> x * 3) (List.init 75_000 Fun.id) in
  ignore (Sys.opaque_identity (h, a, l))

(* Typical kernel time on the host the README measures on, on one
   domain and on two; they set only the scale of the reported times. *)
let nominal_s ~domains = if domains = 1 then 0.040 else 0.045

(* Wall time of one kernel on each of [domains] domains at once. *)
let kernel_s ~domains =
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Unix.gettimeofday () -. t0
