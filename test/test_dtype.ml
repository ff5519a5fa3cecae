(* Unit tests of the data-type semantics (rounding, wrap-around, cast). *)

open Ascend

let check_float = Alcotest.(check (float 0.0))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all = [ Dtype.F16; Dtype.F32; Dtype.I8; Dtype.I16; Dtype.U16; Dtype.I32 ]

let test_sizes () =
  check_int "f16" 2 (Dtype.size_bytes Dtype.F16);
  check_int "f32" 4 (Dtype.size_bytes Dtype.F32);
  check_int "i8" 1 (Dtype.size_bytes Dtype.I8);
  check_int "i16" 2 (Dtype.size_bytes Dtype.I16);
  check_int "u16" 2 (Dtype.size_bytes Dtype.U16);
  check_int "i32" 4 (Dtype.size_bytes Dtype.I32)

let test_is_integer () =
  check_bool "f16" false (Dtype.is_integer Dtype.F16);
  check_bool "f32" false (Dtype.is_integer Dtype.F32);
  List.iter
    (fun dt -> check_bool (Dtype.to_string dt) true (Dtype.is_integer dt))
    [ Dtype.I8; Dtype.I16; Dtype.U16; Dtype.I32 ]

let test_round_floats () =
  check_float "f16 rounds" 2048.0 (Dtype.round Dtype.F16 2049.0);
  check_float "f32 exact small" 1.5 (Dtype.round Dtype.F32 1.5);
  (* f32 rounds a double that needs more than 24 bits of mantissa. *)
  let v = 16777217.0 in
  check_float "f32 rounds 2^24+1" 16777216.0 (Dtype.round Dtype.F32 v)

let test_round_integers () =
  check_float "i8 in range" 100.0 (Dtype.round Dtype.I8 100.0);
  check_float "i8 negative" (-100.0) (Dtype.round Dtype.I8 (-100.0));
  check_float "i8 wraps 128 -> -128" (-128.0) (Dtype.round Dtype.I8 128.0);
  check_float "i8 wraps 255 -> -1" (-1.0) (Dtype.round Dtype.I8 255.0);
  check_float "i8 wraps -129 -> 127" 127.0 (Dtype.round Dtype.I8 (-129.0));
  check_float "i16 wraps" (-32768.0) (Dtype.round Dtype.I16 32768.0);
  check_float "u16 wraps" 0.0 (Dtype.round Dtype.U16 65536.0);
  check_float "u16 negative wraps" 65535.0 (Dtype.round Dtype.U16 (-1.0));
  check_float "i32 max" 2147483647.0 (Dtype.round Dtype.I32 2147483647.0);
  check_float "i32 wraps" (-2147483648.0) (Dtype.round Dtype.I32 2147483648.0);
  check_float "truncation toward zero" 3.0 (Dtype.round Dtype.I8 3.9);
  check_float "negative truncation" (-3.0) (Dtype.round Dtype.I8 (-3.9))

let test_min_max () =
  check_float "i8 min" (-128.0) (Dtype.min_value Dtype.I8);
  check_float "i8 max" 127.0 (Dtype.max_value Dtype.I8);
  check_float "u16 min" 0.0 (Dtype.min_value Dtype.U16);
  check_float "u16 max" 65535.0 (Dtype.max_value Dtype.U16);
  check_float "f16 max" 65504.0 (Dtype.max_value Dtype.F16);
  check_float "f16 min" (-65504.0) (Dtype.min_value Dtype.F16)

let test_cast () =
  check_float "f32 -> i32 truncates" 3.0
    (Dtype.cast ~from:Dtype.F32 ~into:Dtype.I32 3.7);
  check_float "f16 -> i8 wraps" (-116.0)
    (Dtype.cast ~from:Dtype.F16 ~into:Dtype.I8 396.0);
  check_float "i32 -> f16 rounds" 2048.0
    (Dtype.cast ~from:Dtype.I32 ~into:Dtype.F16 2049.0);
  check_float "i32 -> i16 wraps" (-32768.0)
    (Dtype.cast ~from:Dtype.I32 ~into:Dtype.I16 32768.0);
  check_float "u16 -> i8" (-1.0)
    (Dtype.cast ~from:Dtype.U16 ~into:Dtype.I8 65535.0)

let test_equal_and_strings () =
  List.iter
    (fun dt ->
      check_bool (Dtype.to_string dt) true (Dtype.equal dt dt);
      check_bool "name non-empty" true (String.length (Dtype.to_string dt) > 0))
    all;
  check_bool "f16 <> i16" false (Dtype.equal Dtype.F16 Dtype.I16)

let prop_round_idempotent =
  QCheck.Test.make ~name:"round idempotent for every dtype" ~count:1000
    QCheck.(pair (int_bound 5) (float_bound_exclusive 1e6))
    (fun (di, v) ->
      let dt = List.nth all di in
      Dtype.round dt (Dtype.round dt v) = Dtype.round dt v)

let prop_integer_in_range =
  QCheck.Test.make ~name:"integer round lands in range" ~count:1000
    QCheck.(pair (int_bound 3) (float_range (-1e7) 1e7))
    (fun (di, v) ->
      let dt = List.nth [ Dtype.I8; Dtype.I16; Dtype.U16; Dtype.I32 ] di in
      let r = Dtype.round dt v in
      r >= Dtype.min_value dt && r <= Dtype.max_value dt && Float.is_integer r)

(* The historical integer wrap, [mod]-based, kept here as the oracle of
   the shift/mask form {!Dtype.round} now uses. *)
let mod_wrap dt v =
  let bits = Dtype.size_bytes dt * 8 in
  let m = 1 lsl bits in
  let x = ((int_of_float v mod m) + m) mod m in
  match dt with
  | Dtype.U16 -> float_of_int x
  | _ -> if x >= m / 2 then float_of_int (x - m) else float_of_int x

let int_dtypes = [ Dtype.I8; Dtype.I16; Dtype.U16; Dtype.I32 ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_wrap_exhaustive () =
  List.iter
    (fun dt ->
      for i = -(1 lsl 17) to 1 lsl 17 do
        let v = float_of_int i in
        if not (same_bits (Dtype.round dt v) (mod_wrap dt v)) then
          Alcotest.failf "%s: wrap of %d differs" (Dtype.to_string dt) i
      done)
    int_dtypes

let prop_wrap_random_62bit =
  QCheck.Test.make ~name:"shift/mask wrap = mod wrap on 62-bit ints"
    ~count:2000
    QCheck.(pair (int_bound 3) int)
    (fun (di, i) ->
      let dt = List.nth int_dtypes di in
      (* Through float, as every stored value is: beyond 2^53 the
         conversion rounds, identically on both sides. *)
      let v = float_of_int i in
      same_bits (Dtype.round dt v) (mod_wrap dt v)
      && same_bits
           (Dtype.cast ~from:Dtype.F32 ~into:dt v)
           (mod_wrap dt (Float.of_int (int_of_float v))))

let () =
  Alcotest.run "dtype"
    [
      ( "semantics",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "is_integer" `Quick test_is_integer;
          Alcotest.test_case "float rounding" `Quick test_round_floats;
          Alcotest.test_case "integer wrap" `Quick test_round_integers;
          Alcotest.test_case "shift/mask wrap = mod wrap, +-2^17" `Quick
            test_wrap_exhaustive;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "cast" `Quick test_cast;
          Alcotest.test_case "equal/strings" `Quick test_equal_and_strings;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_round_idempotent; prop_integer_in_range; prop_wrap_random_62bit ] );
    ]
