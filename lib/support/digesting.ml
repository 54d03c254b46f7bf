type t = { hi : int64; lo : int64 }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  let c = Int64.compare a.hi b.hi in
  if c <> 0 then c else Int64.compare a.lo b.lo

let mask32 = 0xFFFFFFFF

(* One FNV-1a stream, computed in 32-bit halves on native ints: Int64
   arithmetic boxes every intermediate on the classic compiler, which
   made digesting the dominant allocator of warm relink keys. The FNV
   prime is 2^40 + 0x1B3, so h*prime mod 2^64 reduces to a byte shift
   and one small multiply per half — bit-identical to the Int64
   reference (the unit tests keep one and compare). [extra], when
   non-negative, is processed as one trailing byte — the lo stream's
   "\x01" suffix without copying the string. *)
let fnv32 ~hi0 ~lo0 s ~extra =
  let hi = ref hi0 and lo = ref lo0 in
  let n = String.length s in
  for i = 0 to n - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let pl = l * 0x1B3 in
    hi := ((l lsl 8) + (!hi * 0x1B3) + (pl lsr 32)) land mask32;
    lo := pl land mask32
  done;
  if extra >= 0 then begin
    let l = !lo lxor extra in
    let pl = l * 0x1B3 in
    hi := ((l lsl 8) + (!hi * 0x1B3) + (pl lsr 32)) land mask32;
    lo := pl land mask32
  end;
  Int64.logor (Int64.shift_left (Int64.of_int !hi) 32) (Int64.of_int !lo)

let of_string s =
  {
    hi = fnv32 ~hi0:0xCBF29CE4 ~lo0:0x84222325 s ~extra:(-1);
    lo = fnv32 ~hi0:0x84222325 ~lo0:0xCBF29CE4 s ~extra:1;
  }

let hex_digits = "0123456789abcdef"

(* Same rendering as [Printf.sprintf "%016Lx%016Lx"], without the
   format machinery: action-key hex feeds fault-plan decisions, so the
   bytes must stay identical. *)
let to_hex d =
  let b = Bytes.create 32 in
  let put off v64 =
    let hi = Int64.to_int (Int64.shift_right_logical v64 32) land mask32 in
    let lo = Int64.to_int v64 land mask32 in
    for i = 0 to 7 do
      Bytes.unsafe_set b (off + i) hex_digits.[(hi lsr ((7 - i) * 4)) land 0xF];
      Bytes.unsafe_set b (off + 8 + i) hex_digits.[(lo lsr ((7 - i) * 4)) land 0xF]
    done
  in
  put 0 d.hi;
  put 16 d.lo;
  Bytes.unsafe_to_string b

let concat ds =
  let buf = Buffer.create (32 * List.length ds) in
  List.iter (fun d -> Buffer.add_string buf (to_hex d)) ds;
  of_string (Buffer.contents buf)
