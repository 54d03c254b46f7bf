type t = { mutable now : float }

let create () = { now = 0.0 }

let now t = t.now

let advance t dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative duration";
  t.now <- t.now +. dt

