(* Integration tests of the radix sort and the float codec. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_codec_roundtrip_all () =
  for u = 0 to 0xFFFF do
    let e = Ops.Float_codec.encode_bits u in
    if Ops.Float_codec.decode_bits e <> u then
      Alcotest.failf "codec roundtrip failed for 0x%04X" u
  done

let test_codec_order_preserving () =
  (* On finite fp16 patterns, value order maps to unsigned-int order. *)
  let pats =
    [ 0xFBFF (* -65504 *); 0xC000 (* -2 *); 0xBC00 (* -1 *); 0x8001;
      0x8000 (* -0 *); 0x0000 (* +0 *); 0x0001; 0x3C00 (* 1 *);
      0x4000 (* 2 *); 0x7BFF (* 65504 *) ]
  in
  let enc = List.map Ops.Float_codec.encode_bits pats in
  let rec check = function
    | a :: (b :: _ as rest) ->
        check_bool "monotone" true (a < b);
        check rest
    | _ -> ()
  in
  check enc

let sorted_check ?(descending = false) values n =
  for i = 1 to n - 1 do
    let a = Global_tensor.get values (i - 1)
    and b = Global_tensor.get values i in
    let ok = if descending then a >= b else a <= b in
    if not ok then Alcotest.failf "not sorted at %d (%g vs %g)" i a b
  done

let test_sort_f16 () =
  List.iter
    (fun n ->
      let data = Workload.Generators.uniform_f16 ~seed:n ~lo:(-100.0) ~hi:100.0 n in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let r = Ops.Radix_sort.run dev x in
      let expect, _ = Scan.Reference.stable_sort_with_indices data in
      for i = 0 to n - 1 do
        if Global_tensor.get r.Ops.Radix_sort.values i <> expect.(i) then
          Alcotest.failf "n=%d mismatch at %d" n i
      done)
    [ 1; 2; 100; 8192; 8193; 30000 ]

let test_sort_values_with_zeros_and_negatives () =
  let data = [| 0.0; -0.0; 1.5; -1.5; 0.25; -65504.0; 65504.0; -0.25; 2.0 |] in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run dev x in
  sorted_check r.Ops.Radix_sort.values (Array.length data);
  Alcotest.(check (float 0.0)) "min" (-65504.0)
    (Global_tensor.get r.Ops.Radix_sort.values 0);
  Alcotest.(check (float 0.0)) "max" 65504.0
    (Global_tensor.get r.Ops.Radix_sort.values 8)

let test_sort_indices_permutation_and_stability () =
  let n = 20000 in
  (* Coarse values force many duplicates to exercise stability. *)
  let data =
    Array.init n (fun i -> float_of_int ((i * 31) mod 16) /. 4.0)
  in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run ~with_indices:true dev x in
  let gi = Option.get r.Ops.Radix_sort.indices in
  let seen = Array.make n false in
  for i = 0 to n - 1 do
    let j = int_of_float (Global_tensor.get gi i) in
    check_bool "valid index" true (j >= 0 && j < n && not seen.(j));
    seen.(j) <- true;
    if data.(j) <> Global_tensor.get r.Ops.Radix_sort.values i then
      Alcotest.failf "index does not map back at %d" i
  done;
  for i = 1 to n - 1 do
    let a = Global_tensor.get r.Ops.Radix_sort.values (i - 1)
    and b = Global_tensor.get r.Ops.Radix_sort.values i in
    if a = b then begin
      let ja = int_of_float (Global_tensor.get gi (i - 1))
      and jb = int_of_float (Global_tensor.get gi i) in
      check_bool "stable among equals" true (ja < jb)
    end
  done

let test_sort_descending () =
  let n = 10000 in
  let data = Workload.Generators.uniform_f16 ~seed:5 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run ~descending:true dev x in
  sorted_check ~descending:true r.Ops.Radix_sort.values n

let test_sort_u16 () =
  let n = 10000 in
  let data =
    Array.init n (fun i -> float_of_int ((i * 40503) land 0xFFFF))
  in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.U16 ~name:"x" data in
  let r = Ops.Radix_sort.run dev x in
  sorted_check r.Ops.Radix_sort.values n;
  let rd = Ops.Radix_sort.run ~descending:true dev x in
  sorted_check ~descending:true rd.Ops.Radix_sort.values n

let test_sort_u16_low_bits () =
  (* bits=4 suffices for keys < 16 and runs 4 passes only. *)
  let n = 5000 in
  let data = Array.init n (fun i -> float_of_int ((i * 7) mod 16)) in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.U16 ~name:"x" data in
  let r4 = Ops.Radix_sort.run ~bits:4 dev x in
  sorted_check r4.Ops.Radix_sort.values n;
  let r16 = Ops.Radix_sort.run ~bits:16 dev x in
  check_bool "fewer bits is faster" true
    (r4.Ops.Radix_sort.stats.Stats.seconds
     < r16.Ops.Radix_sort.stats.Stats.seconds /. 2.0)

let test_matches_baseline_sort () =
  let n = 8192 in
  let data = Workload.Generators.uniform_f16 ~seed:77 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run dev x in
  let b, _ = Ops.Baseline.sort dev x in
  for i = 0 to n - 1 do
    if Global_tensor.get r.Ops.Radix_sort.values i <> Global_tensor.get b i
    then Alcotest.failf "radix and bitonic disagree at %d" i
  done

let test_validation () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0 |] in
  check_bool "bits range" true
    (try
       ignore (Ops.Radix_sort.run ~bits:0 dev x);
       false
     with Invalid_argument _ -> true);
  check_bool "f16 needs 16 bits" true
    (try
       ignore (Ops.Radix_sort.run ~bits:8 dev x);
       false
     with Invalid_argument _ -> true);
  let xi = Device.of_array dev Dtype.I32 ~name:"xi" [| 1.0 |] in
  check_bool "dtype" true
    (try
       ignore (Ops.Radix_sort.run dev xi);
       false
     with Invalid_argument _ -> true)

let test_instruction_mix () =
  (* 16 bit-splits over n = 16384 (one MCScan tile per scan): one mmad
     per exclusive scan, two gather_masks per gather tile per split
     (values only), plus one RadixSingle extraction per pass. *)
  let n = 16384 in
  let data = Workload.Generators.uniform_f16 ~seed:3 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run dev x in
  let st = r.Ops.Radix_sort.stats in
  check_int "one mmad per bit pass" 16 (Stats.op_count st "mmad");
  check_bool "gathers present" true (Stats.op_count st "gather_mask" >= 2 * 16);
  check_bool "bit extraction shifts" true
    (Stats.op_count st "shift_right" > 0)

let test_pass_count_in_stats () =
  (* 16 bit passes = 16 splits, each at least one scan: the combined
     stats must contain well over 32 phases. *)
  let n = 4096 in
  let data = Workload.Generators.uniform_f16 ~seed:9 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let r = Ops.Radix_sort.run dev x in
  check_int "phase count"
    (16 * 4 + 2)
    (List.length r.Ops.Radix_sort.stats.Stats.phases)

(* Fill every pooled payload of length [n] with junk: a tensor the
   sort retired while still live would be overwritten here. *)
let scribble dev n =
  for _ = 1 to 8 do
    Global_tensor.fill (Device.alloc dev Dtype.U16 n ~name:"junk") 7.0
  done

(* n = 1 and n below one tile per vector core (most cores get one
   element or none), ascending u16 (where the first pass splits the
   caller's own tensor) and descending f16, with indices. *)
let test_small_n_keeps_input () =
  List.iter
    (fun n ->
      let dev = Device.create () in
      let data = Array.init n (fun i -> float_of_int (((i * 40503) + 17) land 0xFFFF)) in
      let x = Device.of_array dev Dtype.U16 ~name:"x" data in
      let r = Ops.Radix_sort.run ~with_indices:true dev x in
      scribble dev n;
      let expect, expect_idx = Scan.Reference.stable_sort_with_indices data in
      let gi = Option.get r.Ops.Radix_sort.indices in
      for i = 0 to n - 1 do
        if Global_tensor.get x i <> data.(i) then
          Alcotest.failf "n=%d: input key %d overwritten" n i;
        if Global_tensor.get r.Ops.Radix_sort.values i <> expect.(i)
           || int_of_float (Global_tensor.get gi i) <> expect_idx.(i)
        then Alcotest.failf "n=%d: u16 mismatch at %d" n i
      done;
      let fdata = Workload.Generators.uniform_f16 ~seed:n ~lo:(-4.0) ~hi:4.0 n in
      let fx = Device.of_array dev Dtype.F16 ~name:"fx" fdata in
      let fr = Ops.Radix_sort.run ~descending:true ~with_indices:true dev fx in
      scribble dev n;
      sorted_check ~descending:true fr.Ops.Radix_sort.values n;
      let fgi = Option.get fr.Ops.Radix_sort.indices in
      for i = 0 to n - 1 do
        if Global_tensor.get fx i <> fdata.(i) then
          Alcotest.failf "n=%d: f16 input %d overwritten" n i;
        let j = int_of_float (Global_tensor.get fgi i) in
        if fdata.(j) <> Global_tensor.get fr.Ops.Radix_sort.values i then
          Alcotest.failf "n=%d: f16 index does not map back at %d" n i
      done)
    [ 1; 37; 100 ]

let () =
  Alcotest.run "radix"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all" `Quick test_codec_roundtrip_all;
          Alcotest.test_case "order preserving" `Quick
            test_codec_order_preserving;
        ] );
      ( "sort",
        [
          Alcotest.test_case "f16 various n" `Quick test_sort_f16;
          Alcotest.test_case "zeros and negatives" `Quick
            test_sort_values_with_zeros_and_negatives;
          Alcotest.test_case "indices + stability" `Quick
            test_sort_indices_permutation_and_stability;
          Alcotest.test_case "descending" `Quick test_sort_descending;
          Alcotest.test_case "u16" `Quick test_sort_u16;
          Alcotest.test_case "u16 low bits" `Quick test_sort_u16_low_bits;
          Alcotest.test_case "small n, input intact" `Quick
            test_small_n_keeps_input;
          Alcotest.test_case "matches bitonic" `Quick
            test_matches_baseline_sort;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "pass structure" `Quick test_pass_count_in_stats;
          Alcotest.test_case "instruction mix" `Quick test_instruction_mix;
        ] );
    ]
