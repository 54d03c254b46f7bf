type t = { hi : int64; lo : int64 }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let mask32 = 0xFFFFFFFF

(* The two FNV-1a streams live in one 16-byte state: [hi]'s at offset
   0, [lo]'s at 8, read and written by the compiler's unboxed 64-bit
   primitives, so a loop over a string keeps both in registers and
   allocates nothing. *)
type state = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let prime = 0x100000001B3L

let init () =
  let st = Bytes.create 16 in
  set64 st 0 0xCBF29CE484222325L;
  set64 st 8 0x84222325CBF29CE4L;
  st

let add_char st c =
  let c = Int64.of_int (Char.code c) in
  set64 st 0 (Int64.mul (Int64.logxor (get64 st 0) c) prime);
  set64 st 8 (Int64.mul (Int64.logxor (get64 st 8) c) prime)

let add_string st s =
  let a = ref (get64 st 0) and b = ref (get64 st 8) in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    a := Int64.mul (Int64.logxor !a c) prime;
    b := Int64.mul (Int64.logxor !b c) prime
  done;
  set64 st 0 !a;
  set64 st 8 !b

let rec add_digits st n =
  if n >= 10 then add_digits st (n / 10);
  add_char st (Char.unsafe_chr (48 + (n mod 10)))

let add_int st n = if n < 0 then add_string st (string_of_int n) else add_digits st n

let add_int64_le st v =
  for i = 0 to 7 do
    add_char st (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

(* [Printf "%.2f"] rounds the exact binary value to the nearest
   hundredth, ties to even, and keeps the sign: [-0.0] and small
   negatives print [-0.00]. [n = round (100x)] is that hundredth when
   [x] lies strictly between [(2n ± 1) / 200], and each bound's fused
   multiply-add has the exact sign of [200x - (2n ± 1)]. Ties,
   non-finite values and magnitudes where [2n ± 1] could round take
   [Printf]. *)
let add_fixed2 st x =
  let n = Float.round (x *. 100.) in
  if
    Float.abs x < 1e13
    && Float.fma 200. x (1. -. (2. *. n)) > 0.
    && Float.fma 200. x (-1. -. (2. *. n)) < 0.
  then begin
    if Float.sign_bit x then add_char st '-';
    let m = Float.to_int (Float.abs n) in
    add_digits st (m / 100);
    add_char st '.';
    add_char st (Char.unsafe_chr (48 + (m mod 100 / 10)));
    add_char st (Char.unsafe_chr (48 + (m mod 10)))
  end
  else add_string st (Printf.sprintf "%.2f" x)

let finish st = { hi = get64 st 0; lo = Int64.mul (Int64.logxor (get64 st 8) 1L) prime }

let of_string s =
  let st = init () in
  add_string st s;
  finish st

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

(* Feeds the eight hex digits of the low 32 bits of [v], most
   significant first. *)
let add_hex32 st v =
  for i = 7 downto 0 do
    add_char st (String.unsafe_get hex_digits ((v lsr (i * 4)) land 0xF))
  done

let add_hex st d =
  add_hex32 st (Int64.to_int (Int64.shift_right_logical d.hi 32) land mask32);
  add_hex32 st (Int64.to_int d.hi land mask32);
  add_hex32 st (Int64.to_int (Int64.shift_right_logical d.lo 32) land mask32);
  add_hex32 st (Int64.to_int d.lo land mask32)
