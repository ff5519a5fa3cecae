type t = F16 | F32 | I8 | I16 | U16 | I32

let size_bytes = function
  | F16 | I16 | U16 -> 2
  | F32 | I32 -> 4
  | I8 -> 1

let is_integer = function
  | I8 | I16 | U16 | I32 -> true
  | F16 | F32 -> false

let min_value = function
  | F16 -> -.Fp16.max_value
  | F32 -> -.Float.max_float
  | I8 -> -128.0
  | I16 -> -32768.0
  | U16 -> 0.0
  | I32 -> -2147483648.0

let max_value = function
  | F16 -> Fp16.max_value
  | F32 -> Float.max_float
  | I8 -> 127.0
  | I16 -> 32767.0
  | U16 -> 65535.0
  | I32 -> 2147483647.0

let[@inline] round_f32 v =
  if Float.is_nan v then v else Int32.float_of_bits (Int32.bits_of_float v)

(* Two's-complement wrap-around of a truncated float, for a field of
   [bits] bits. Mirrors what the hardware stores on integer overflow.
   Shift/mask form of [((x mod 2^bits) + 2^bits) mod 2^bits] (then
   re-signed): sign-extend the low [bits] bits with a shift pair, and
   for unsigned fields keep only those bits. *)
let int_shift dt = Sys.int_size - (size_bytes dt * 8)
let int_keep = function U16 -> 0xFFFF | F16 | F32 | I8 | I16 | I32 -> -1

let[@inline] wrap ~shift ~keep v =
  float_of_int (((int_of_float v lsl shift) asr shift) land keep)

let[@inline] round dt v =
  match dt with
  | F16 -> Fp16.round v
  | F32 -> round_f32 v
  | I8 | I16 | U16 | I32 -> wrap ~shift:(int_shift dt) ~keep:(int_keep dt) v

let cast ~from ~into v =
  match from, into with
  | (F16 | F32), (I8 | I16 | U16 | I32) -> round into (Float.of_int (int_of_float v))
  | _, _ -> round into v

let equal a b =
  match a, b with
  | F16, F16 | F32, F32 | I8, I8 | I16, I16 | U16, U16 | I32, I32 -> true
  | (F16 | F32 | I8 | I16 | U16 | I32), _ -> false

let to_string = function
  | F16 -> "f16"
  | F32 -> "f32"
  | I8 -> "i8"
  | I16 -> "i16"
  | U16 -> "u16"
  | I32 -> "i32"

let pp fmt dt = Format.pp_print_string fmt (to_string dt)
