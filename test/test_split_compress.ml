(* Integration tests of SplitInd and Compress against the oracles. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_case ~seed ~density n =
  let data = Workload.Generators.uniform_f16 ~seed n in
  let flags = Workload.Generators.ones_and_zeros ~seed:(seed + 1) ~density n in
  (data, flags)

let run_split ?with_indices ~data ~flags () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let f = Device.of_array dev Dtype.I8 ~name:"f" flags in
  (dev, Ops.Split.run ?with_indices dev ~x ~flags:f ())

let check_split_result ~data ~flags (r : Ops.Split.result) ~with_indices =
  let n = Array.length data in
  let exp_vals, exp_idx = Scan.Reference.split data ~flags in
  let trues = Array.fold_left (fun a v -> if v <> 0.0 then a + 1 else a) 0 flags in
  check_int "true_count" trues r.Ops.Split.true_count;
  for i = 0 to n - 1 do
    if Global_tensor.get r.Ops.Split.values i <> exp_vals.(i) then
      Alcotest.failf "value mismatch at %d" i
  done;
  match r.Ops.Split.indices, with_indices with
  | Some gi, true ->
      for i = 0 to n - 1 do
        if int_of_float (Global_tensor.get gi i) <> exp_idx.(i) then
          Alcotest.failf "index mismatch at %d" i
      done
  | None, false -> ()
  | Some _, false -> Alcotest.fail "unexpected indices"
  | None, true -> Alcotest.fail "missing indices"

let split_case ~seed ~density n with_indices () =
  let data, flags = make_case ~seed ~density n in
  let _, r = run_split ~with_indices ~data ~flags () in
  check_split_result ~data ~flags r ~with_indices

let test_all_true_all_false () =
  List.iter
    (fun density ->
      let n = 5000 in
      let data = Workload.Generators.uniform_f16 ~seed:3 n in
      let flags = Array.make n density in
      let _, r = run_split ~with_indices:true ~data ~flags () in
      check_split_result ~data ~flags r ~with_indices:true)
    [ 0.0; 1.0 ]

let test_indices_chaining () =
  (* indices_in permutes through a second split like a radix pass. *)
  let n = 4000 in
  let data = Workload.Generators.uniform_f16 ~seed:11 n in
  let flags1 = Workload.Generators.ones_and_zeros ~seed:12 ~density:0.5 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let f1 = Device.of_array dev Dtype.I8 ~name:"f1" flags1 in
  let r1 = Ops.Split.run ~with_indices:true dev ~x ~flags:f1 () in
  let flags2 =
    Array.init n (fun i ->
        if Global_tensor.get r1.Ops.Split.values i > 0.0 then 1.0 else 0.0)
  in
  let f2 = Device.of_array dev Dtype.I8 ~name:"f2" flags2 in
  let r2 =
    Ops.Split.run ~with_indices:true ?indices_in:r1.Ops.Split.indices dev
      ~x:r1.Ops.Split.values ~flags:f2 ()
  in
  (* After both splits, index i of the output must still point at the
     original element. *)
  (match r2.Ops.Split.indices with
  | Some gi ->
      for i = 0 to n - 1 do
        let src = int_of_float (Global_tensor.get gi i) in
        if data.(src) <> Global_tensor.get r2.Ops.Split.values i then
          Alcotest.failf "chained index broken at %d" i
      done
  | None -> Alcotest.fail "indices missing");
  check_bool "chain ok" true true

let test_emit_falses_off () =
  let n = 3000 in
  let data, flags = make_case ~seed:21 ~density:0.3 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let f = Device.of_array dev Dtype.I8 ~name:"f" flags in
  let r = Ops.Split.run ~emit_falses:false dev ~x ~flags:f () in
  let exp = Scan.Reference.compress data ~mask:flags in
  Array.iteri
    (fun i v ->
      if Global_tensor.get r.Ops.Split.values i <> v then
        Alcotest.failf "true-run mismatch at %d" i)
    exp

let test_compress_matches_oracle () =
  List.iter
    (fun (n, density) ->
      let data, mask = make_case ~seed:(n + 1) ~density n in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let m = Device.of_array dev Dtype.I8 ~name:"m" mask in
      let r = Ops.Compress.run dev ~x ~mask:m () in
      let exp = Scan.Reference.compress data ~mask in
      check_int
        (Printf.sprintf "count n=%d" n)
        (Array.length exp) r.Ops.Compress.count;
      Array.iteri
        (fun i v ->
          if Global_tensor.get r.Ops.Compress.values i <> v then
            Alcotest.failf "compress mismatch n=%d idx=%d" n i)
        exp)
    [ (1, 1.0); (100, 0.5); (8192, 0.1); (8193, 0.9); (50000, 0.5) ]

let test_compress_equals_masked_select () =
  let n = 4000 in
  let data, mask = make_case ~seed:31 ~density:0.4 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let m = Device.of_array dev Dtype.I8 ~name:"m" mask in
  let r = Ops.Compress.run dev ~x ~mask:m () in
  let bv, bcount, _ = Ops.Baseline.masked_select dev ~x ~mask:m in
  check_int "counts agree" bcount r.Ops.Compress.count;
  for i = 0 to bcount - 1 do
    if Global_tensor.get bv i <> Global_tensor.get r.Ops.Compress.values i then
      Alcotest.failf "baseline disagrees at %d" i
  done

let test_validation () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0; 2.0 |] in
  let bad_flags = Device.of_array dev Dtype.I8 ~name:"f" [| 1.0 |] in
  check_bool "length mismatch" true
    (try
       ignore (Ops.Split.run dev ~x ~flags:bad_flags ());
       false
     with Invalid_argument _ -> true);
  let f32_flags = Device.of_array dev Dtype.F32 ~name:"f32" [| 1.0; 0.0 |] in
  check_bool "flag dtype" true
    (try
       ignore (Ops.Split.run dev ~x ~flags:f32_flags ());
       false
     with Invalid_argument _ -> true);
  let xi32 = Device.of_array dev Dtype.I32 ~name:"xi" [| 1.0; 2.0 |] in
  let f = Device.of_array dev Dtype.I8 ~name:"f" [| 1.0; 0.0 |] in
  check_bool "x dtype" true
    (try
       ignore (Ops.Split.run dev ~x:xi32 ~flags:f ());
       false
     with Invalid_argument _ -> true)

let test_split_traffic () =
  (* Split must at least read x and the flags and write the values. *)
  let n = 30000 in
  let data, flags = make_case ~seed:41 ~density:0.5 n in
  let _, r = run_split ~data ~flags () in
  let st = r.Ops.Split.stats in
  check_bool "reads" true (st.Stats.gm_read_bytes >= 3 * n);
  check_bool "writes" true (st.Stats.gm_write_bytes >= 2 * n)

(* n = 1 and n below one tile per vector core, for every 16-bit key
   dtype. Split retires its exclusive scan after the gather; fresh
   allocations of the same length then reuse that storage, and must not
   disturb the inputs or the results. *)
let test_small_n_scan_retired () =
  List.iter
    (fun (dt, n) ->
      let dev = Device.create () in
      let data =
        Array.init n (fun i ->
            match dt with
            | Dtype.F16 -> float_of_int (i mod 50) /. 8.0
            | Dtype.I16 -> float_of_int (((i * 977) mod 60000) - 30000)
            | _ -> float_of_int ((i * 40503) land 0xFFFF))
      in
      let flags = Workload.Generators.ones_and_zeros ~seed:n ~density:0.4 n in
      let x = Device.of_array dev dt ~name:"x" data in
      let f = Device.of_array dev Dtype.I8 ~name:"f" flags in
      let r = Ops.Split.run ~with_indices:true dev ~x ~flags:f () in
      for _ = 1 to 8 do
        Global_tensor.fill (Device.alloc dev Dtype.I32 n ~name:"junk") (-3.0)
      done;
      for i = 0 to n - 1 do
        if Global_tensor.get x i <> data.(i) || Global_tensor.get f i <> flags.(i)
        then Alcotest.failf "%s n=%d: input %d overwritten" (Dtype.to_string dt) n i
      done;
      check_split_result ~data ~flags r ~with_indices:true)
    (List.concat_map
       (fun dt -> List.map (fun n -> (dt, n)) [ 1; 37; 100 ])
       [ Dtype.F16; Dtype.I16; Dtype.U16 ])

let () =
  Alcotest.run "split_compress"
    [
      ( "split",
        [
          Alcotest.test_case "basic n=1000" `Quick
            (split_case ~seed:1 ~density:0.5 1000 true);
          Alcotest.test_case "no indices" `Quick
            (split_case ~seed:2 ~density:0.5 1000 false);
          Alcotest.test_case "sparse trues" `Quick
            (split_case ~seed:3 ~density:0.05 20000 true);
          Alcotest.test_case "dense trues" `Quick
            (split_case ~seed:4 ~density:0.95 20000 true);
          Alcotest.test_case "tile boundary 8192" `Quick
            (split_case ~seed:5 ~density:0.5 8192 true);
          Alcotest.test_case "tile boundary 8193" `Quick
            (split_case ~seed:6 ~density:0.5 8193 true);
          Alcotest.test_case "single element" `Quick
            (split_case ~seed:7 ~density:0.5 1 true);
          Alcotest.test_case "large 60000" `Quick
            (split_case ~seed:8 ~density:0.5 60000 true);
          Alcotest.test_case "all true / all false" `Quick
            test_all_true_all_false;
          Alcotest.test_case "indices chaining" `Quick test_indices_chaining;
          Alcotest.test_case "emit_falses off" `Quick test_emit_falses_off;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "traffic" `Quick test_split_traffic;
          Alcotest.test_case "small n, scan retired" `Quick
            test_small_n_scan_retired;
        ] );
      ( "compress",
        [
          Alcotest.test_case "oracle" `Quick test_compress_matches_oracle;
          Alcotest.test_case "matches masked_select" `Quick
            test_compress_equals_masked_select;
        ] );
    ]
