type t = int
type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let to_ns t = t

let span_ns n =
  if n < 0 then invalid_arg "Time.span_ns: negative";
  n

let span_us x = span_ns (int_of_float (Float.round (x *. 1e3)))
let span_ms x = span_ns (int_of_float (Float.round (x *. 1e6)))
let span_s x = span_ns (int_of_float (Float.round (x *. 1e9)))
let span_to_ns d = d
let span_to_us d = float_of_int d /. 1e3
let span_to_ms d = float_of_int d /. 1e6
let span_to_s d = float_of_int d /. 1e9
let add t d = t + d

let diff later earlier =
  if later < earlier then invalid_arg "Time.diff: later < earlier";
  later - earlier

let span_add a b = a + b

let span_scale d k =
  if k < 0.0 then invalid_arg "Time.span_scale: negative factor";
  int_of_float (Float.round (float_of_int d *. k))

let span_zero = 0
let max_span (a : int) b = if a >= b then a else b
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = Stdlib.( <= ) a b
let ( < ) (a : int) b = Stdlib.( < ) a b
(* Int-specialised: [Stdlib.max]/[min] are polymorphic and compare through
   a C call. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

(* Render with the largest unit that keeps the value >= 1. *)
let pp_ns ppf n =
  let f = float_of_int n in
  if n < 1_000 then Fmt.pf ppf "%dns" n
  else if n < 1_000_000 then Fmt.pf ppf "%.2fus" (f /. 1e3)
  else if n < 1_000_000_000 then Fmt.pf ppf "%.2fms" (f /. 1e6)
  else Fmt.pf ppf "%.3fs" (f /. 1e9)

let pp = pp_ns
let pp_span = pp_ns
