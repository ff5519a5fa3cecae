(* QCheck equivalence suite for the bulk Host_buffer kernels: every
   dtype-specialised loop must reproduce the scalar get/set shim it
   replaced bit for bit — same operand order, same rounding, same NaN
   canonicalization — across all dtypes, every operator, and unaligned
   offsets/lengths. Comparisons are on [Int64.bits_of_float] so NaN
   payload differences and -0.0 vs 0.0 are observable. *)

open Ascend

let all_dtypes = Dtype.[ F16; F32; I8; I16; U16; I32 ]

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Whole-buffer bitwise comparison: catches both wrong results in the
   target range and stray writes outside it. *)
let same_buffer a b =
  Host_buffer.length a = Host_buffer.length b
  && (let ok = ref true in
      for i = 0 to Host_buffer.length a - 1 do
        if not (same_float (Host_buffer.get a i) (Host_buffer.get b i)) then
          ok := false
      done;
      !ok)

(* Value generator biased towards the observable corners: NaNs with
   distinct payloads (quieting and canonicalization differ per dtype),
   infinities, signed zeros, fp16/fp32 overflow and subnormal
   boundaries, integer wrap points. *)
let interesting =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 2049.0; 65504.0; 65519.0; 65520.0;
     -65520.0; 1e-8; 0x1p-24; 0x1p-25; 0x1p-14; infinity; neg_infinity;
     Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0000000000001L;
     Int64.float_of_bits 0xFFF8000000001234L;
     3.4e38; -3.4e38; 1e300; 126.5; 127.0; 128.0; -128.5; -129.0; 255.0;
     256.0; 32767.5; -32769.0; 65535.0; 65536.0; 2.147483648e9;
     (* integer wrap beyond the I32 field and beyond OCaml's int *)
     -2.147483649e9; 2147483647.5; 4294967296.0; 0x1p40; -0x1p40;
     0x1p40 +. 3.75; 0x1p62; -0x1p62; 0x1p63; -0x1p63; 1e19; -1e19 |]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (4, oneofl (Array.to_list interesting));
        (2, map float_of_int (int_range (-2000) 2000));
        (1, map float_of_int int);
        (1, map (fun f -> f *. 0x1p-30) float);
      ])

type case = {
  dt : Dtype.t;  (* destination dtype *)
  dt2 : Dtype.t;  (* source dtype *)
  len : int;
  o0 : int;  (* src0 offset *)
  o1 : int;  (* src1 / mask offset *)
  o2 : int;  (* src2 offset *)
  od : int;  (* dst offset *)
  a0 : float array;  (* length o0 + len *)
  a1 : float array;  (* length o1 + len *)
  a2 : float array;  (* length o2 + len *)
  d0 : float array;  (* initial dst contents, length od + len + 2 *)
  scalar : float;
  seg : int;
  bop : Host_buffer.binop;
  sop : Host_buffer.scalar_op;
  arg : int;  (* bit-op operand: shift count or mask *)
}

let gen_case =
  let open QCheck.Gen in
  let* dt = oneofl all_dtypes in
  let* dt2 = oneofl all_dtypes in
  let* len = int_range 1 48 in
  let* o0 = int_range 0 5 in
  let* o1 = int_range 0 5 in
  let* o2 = int_range 0 5 in
  let* od = int_range 0 5 in
  let* a0 = array_size (return (o0 + len)) gen_value in
  let* a1 = array_size (return (o1 + len)) gen_value in
  let* a2 = array_size (return (o2 + len)) gen_value in
  let* d0 = array_size (return (od + len + 2)) gen_value in
  let* scalar = gen_value in
  let* seg = int_range 1 (len + 3) in
  let* bop = oneofl Host_buffer.[ Add; Sub; Mul; Max; Min ] in
  let* sop = oneofl Host_buffer.[ Adds; Muls; Maxs; Mins ] in
  let* arg = frequency [ (3, int_range 0 40); (1, int) ] in
  return
    { dt; dt2; len; o0; o1; o2; od; a0; a1; a2; d0; scalar; seg; bop; sop; arg }

let print_case c =
  let arr a =
    "[|"
    ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))
    ^ "|]"
  in
  Printf.sprintf
    "dt=%s dt2=%s len=%d o0=%d o1=%d o2=%d od=%d seg=%d arg=%d scalar=%h\n\
     a0=%s\na1=%s\na2=%s\nd0=%s"
    (Dtype.to_string c.dt) (Dtype.to_string c.dt2) c.len c.o0 c.o1 c.o2 c.od
    c.seg c.arg c.scalar (arr c.a0) (arr c.a1) (arr c.a2) (arr c.d0)

let arb_case = QCheck.make ~print:print_case gen_case

let fun_of_binop : Host_buffer.binop -> float -> float -> float = function
  | Host_buffer.Add -> ( +. )
  | Host_buffer.Sub -> ( -. )
  | Host_buffer.Mul -> ( *. )
  | Host_buffer.Max -> Float.max
  | Host_buffer.Min -> Float.min

(* The historical Vec operand order: adds/muls put the element left,
   maxs/mins partially applied the scalar first. *)
let fun_of_scalar_op scalar : Host_buffer.scalar_op -> float -> float = function
  | Host_buffer.Adds -> fun v -> v +. scalar
  | Host_buffer.Muls -> fun v -> v *. scalar
  | Host_buffer.Maxs -> Float.max scalar
  | Host_buffer.Mins -> Float.min scalar

let test ~name prop = QCheck.Test.make ~name ~count:400 arb_case prop

let check_map2_binop c =
  let src0 = Host_buffer.of_array c.dt2 c.a0 in
  let src1 = Host_buffer.of_array c.dt2 c.a1 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.map2_binop c.bop ~src0 ~src0_off:c.o0 ~src1 ~src1_off:c.o1
    ~dst:bulk ~dst_off:c.od ~len:c.len;
  let f = fun_of_binop c.bop in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i)
      (f
         (Host_buffer.get src0 (c.o0 + i))
         (Host_buffer.get src1 (c.o1 + i)))
  done;
  same_buffer bulk shim

let prop_map2_binop = test ~name:"map2_binop = scalar shim" check_map2_binop

let check_map1_scalar c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.map1_scalar c.sop ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od
    ~scalar:c.scalar ~len:c.len;
  let f = fun_of_scalar_op c.scalar c.sop in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i) (f (Host_buffer.get src (c.o0 + i)))
  done;
  same_buffer bulk shim

let prop_map1_scalar = test ~name:"map1_scalar = scalar shim" check_map1_scalar

let check_map1_f c =
  let f v = (v *. 0.5) +. c.scalar in
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.map1_f f ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od
    ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i) (f (Host_buffer.get src (c.o0 + i)))
  done;
  same_buffer bulk shim

let prop_map1_f = test ~name:"map1_f = scalar shim" check_map1_f

let check_select_range c =
  let mask = Host_buffer.of_array c.dt2 c.a1 in
  let src0 = Host_buffer.of_array c.dt2 c.a0 in
  let src1 = Host_buffer.of_array c.dt2 c.a2 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.select_range ~mask ~mask_off:c.o1 ~src0 ~src0_off:c.o0 ~src1
    ~src1_off:c.o2 ~dst:bulk ~dst_off:c.od ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i)
      (if Host_buffer.get mask (c.o1 + i) <> 0.0 then
         Host_buffer.get src0 (c.o0 + i)
       else Host_buffer.get src1 (c.o2 + i))
  done;
  same_buffer bulk shim

let prop_select_range = test ~name:"select_range = scalar shim" check_select_range

let check_fill_range c =
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.fill_range bulk ~off:c.od ~len:c.len c.scalar;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i) c.scalar
  done;
  same_buffer bulk shim

let prop_fill_range = test ~name:"fill_range = scalar shim" check_fill_range

let check_arange_range c =
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.arange_range bulk ~off:c.od ~start:c.scalar ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i) (c.scalar +. float_of_int i)
  done;
  same_buffer bulk shim

let prop_arange_range = test ~name:"arange_range = scalar shim" check_arange_range

let check_blit c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.blit ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i) (Host_buffer.get src (c.o0 + i))
  done;
  same_buffer bulk shim

let prop_blit = test ~name:"blit (same-dtype and converting) = scalar shim" check_blit

let check_blit_overlap c =
  (* d0 has length od + len + 2; shift by up to 2 in either
     direction so source and destination ranges overlap. *)
  let shift = (c.seg mod 5) - 2 in
  let src_off = max 0 (min 2 (2 + shift)) in
  let dst_off = max 0 (min 2 (2 - shift)) in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let snapshot = Host_buffer.to_array bulk in
  Host_buffer.blit ~src:bulk ~src_off ~dst:bulk ~dst_off ~len:c.len;
  let shim = Host_buffer.of_array c.dt c.d0 in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (dst_off + i) snapshot.(src_off + i)
  done;
  same_buffer bulk shim

let prop_blit_overlap = test ~name:"overlapping same-buffer blit is memmove" check_blit_overlap

let check_reduce_add c =
  let b = Host_buffer.of_array c.dt2 c.a0 in
  let acc = ref 0.0 in
  for i = 0 to c.len - 1 do
    acc := !acc +. Host_buffer.get b (c.o0 + i)
  done;
  same_float (Host_buffer.reduce_add b ~off:c.o0 ~len:c.len) !acc

let prop_reduce_add = test ~name:"reduce_add = forward double fold" check_reduce_add

let check_reduce_max c =
  let b = Host_buffer.of_array c.dt2 c.a0 in
  let acc = ref neg_infinity in
  for i = 0 to c.len - 1 do
    acc := Float.max !acc (Host_buffer.get b (c.o0 + i))
  done;
  same_float (Host_buffer.reduce_max b ~off:c.o0 ~len:c.len) !acc

let prop_reduce_max = test ~name:"reduce_max = Float.max fold from -inf" check_reduce_max

let check_scan_accum c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  let got = Host_buffer.scan_accum ~src ~dst:bulk ~len:c.len in
  let acc = ref 0.0 in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim i (!acc +. Host_buffer.get src i);
    acc := Host_buffer.get shim i
  done;
  same_float got !acc && same_buffer bulk shim

let prop_scan_accum = test ~name:"scan_accum = scalar cumsum shim" check_scan_accum

let check_scan_segment c =
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  let got =
    Host_buffer.scan_segment c.bop bulk ~off:c.od ~len:c.len ~seg:c.seg
      ~init:c.scalar
  in
  (* Combine with the carry in the map1_scalar operand order:
     Add/Sub/Mul put the element left, Max/Min the carry left. *)
  let combine carry v =
    match c.bop with
    | Host_buffer.Add -> v +. carry
    | Host_buffer.Sub -> v -. carry
    | Host_buffer.Mul -> v *. carry
    | Host_buffer.Max -> Float.max carry v
    | Host_buffer.Min -> Float.min carry v
  in
  let carry = ref c.scalar in
  let pos = ref 0 in
  while !pos < c.len do
    let row_len = min c.seg (c.len - !pos) in
    let base = c.od + !pos in
    let cr = !carry in
    for j = base to base + row_len - 1 do
      Host_buffer.set shim j (combine cr (Host_buffer.get shim j))
    done;
    carry := Host_buffer.get shim (base + row_len - 1);
    pos := !pos + row_len
  done;
  same_float got !carry && same_buffer bulk shim

let prop_scan_segment = test ~name:"scan_segment = scalar carry shim" check_scan_segment

let check_of_array_roundtrip c =
  let b = Host_buffer.of_array c.dt c.d0 in
  let back = Host_buffer.to_array b in
  Array.length back = Array.length c.d0
  && (let ok = ref true in
      Array.iteri
        (fun i v ->
          if not (same_float back.(i) (Dtype.round c.dt v)) then ok := false)
        c.d0;
      !ok)

let prop_of_array_roundtrip = test ~name:"of_array/to_array roundtrip = per-element round" check_of_array_roundtrip

(* The storage invariant behind every bulk fast path: an fp16 buffer
   element is exactly [Fp16.round] of what was stored, bit for bit —
   pinning Host_buffer's internal encoder to the public codec. *)
let prop_f16_set_is_fp16_round =
  QCheck.Test.make ~name:"F16 set/get = Fp16.round" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_value)
    (fun v ->
      let b = Host_buffer.create Dtype.F16 1 in
      Host_buffer.set b 0 v;
      same_float (Host_buffer.get b 0) (Fp16.round v))

let prop_f32_set_is_round_f32 =
  QCheck.Test.make ~name:"F32 set/get = Dtype.round_f32" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_value)
    (fun v ->
      let b = Host_buffer.create Dtype.F32 1 in
      Host_buffer.set b 0 v;
      same_float (Host_buffer.get b 0) (Dtype.round_f32 v))

(* ------------------------------------------------------------------ *)
(* The kernels added for integer dtypes, each against the scalar loop
   it replaced in [Vec] (historical formulas spelled out here). *)

let int_dtypes = Dtype.[ I8; I16; U16; I32 ]

(* The historical [Vec.unsigned_field]. *)
let unsigned_field dt v =
  let m = 1 lsl (Dtype.size_bytes dt * 8) in
  ((int_of_float v mod m) + m) mod m

let fun_of_bitop : Host_buffer.bitop -> int -> int -> int = function
  | Host_buffer.Shl -> ( lsl )
  | Host_buffer.Shr -> ( lsr )
  | Host_buffer.And -> ( land )
  | Host_buffer.Or -> ( lor )
  | Host_buffer.Xor -> ( lxor )

let all_bitops = Host_buffer.[ Shl; Shr; And; Or; Xor ]

(* Shift counts stay within [0, Sys.int_size], where [lsl]/[lsr] are
   specified; masks use the whole int range. *)
let bit_arg op c =
  match op with
  | Host_buffer.Shl | Host_buffer.Shr -> c.arg land 63
  | Host_buffer.And | Host_buffer.Or | Host_buffer.Xor -> c.arg

let check_map1_bits op c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  let arg = bit_arg op c in
  Host_buffer.map1_bits op ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od ~arg
    ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i)
      (float_of_int
         (fun_of_bitop op (unsigned_field c.dt2 (Host_buffer.get src (c.o0 + i))) arg))
  done;
  same_buffer bulk shim

(* Tensor-tensor bit ops are the [Vec.bit_op] set: And/Or/Xor. *)
let check_map2_bits op c =
  let src0 = Host_buffer.of_array c.dt2 c.a0 in
  let src1 = Host_buffer.of_array c.dt c.a1 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.map2_bits op ~src0 ~src0_off:c.o0 ~src1 ~src1_off:c.o1 ~dst:bulk
    ~dst_off:c.od ~len:c.len;
  for i = 0 to c.len - 1 do
    let u0 = unsigned_field c.dt2 (Host_buffer.get src0 (c.o0 + i))
    and u1 = unsigned_field c.dt (Host_buffer.get src1 (c.o1 + i)) in
    Host_buffer.set shim (c.od + i) (float_of_int (fun_of_bitop op u0 u1))
  done;
  same_buffer bulk shim

let fun_of_cmp : Host_buffer.cmp -> int -> bool = function
  | Host_buffer.Eq -> fun r -> r = 0
  | Host_buffer.Ne -> fun r -> r <> 0
  | Host_buffer.Lt -> fun r -> r < 0
  | Host_buffer.Le -> fun r -> r <= 0
  | Host_buffer.Gt -> fun r -> r > 0
  | Host_buffer.Ge -> fun r -> r >= 0

let all_cmps = Host_buffer.[ Eq; Ne; Lt; Le; Gt; Ge ]

let check_compare_scalar cmp c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.compare_scalar cmp ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od
    ~scalar:c.scalar ~len:c.len;
  let test = fun_of_cmp cmp in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i)
      (if test (Float.compare (Host_buffer.get src (c.o0 + i)) c.scalar) then 1.0
       else 0.0)
  done;
  same_buffer bulk shim

let check_compare cmp c =
  let src0 = Host_buffer.of_array c.dt2 c.a0 in
  let src1 = Host_buffer.of_array c.dt2 c.a1 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.compare cmp ~src0 ~src0_off:c.o0 ~src1 ~src1_off:c.o1 ~dst:bulk
    ~dst_off:c.od ~len:c.len;
  let test = fun_of_cmp cmp in
  for i = 0 to c.len - 1 do
    Host_buffer.set shim (c.od + i)
      (if
         test
           (Float.compare
              (Host_buffer.get src0 (c.o0 + i))
              (Host_buffer.get src1 (c.o1 + i)))
       then 1.0
       else 0.0)
  done;
  same_buffer bulk shim

let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

(* The destination holds [od + seg] elements, so a dense mask overflows
   it: both sides must then raise the same error after the same
   writes. *)
let check_compress c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let mask = Host_buffer.of_array c.dt2 c.a1 in
  let d0 = Array.sub c.d0 0 (min (Array.length c.d0) (c.od + c.seg)) in
  let bulk = Host_buffer.of_array c.dt d0 in
  let shim = Host_buffer.of_array c.dt d0 in
  let got =
    outcome (fun () ->
        Host_buffer.compress ~src ~src_off:c.o0 ~mask ~mask_off:c.o1 ~dst:bulk
          ~dst_off:c.od ~len:c.len)
  in
  let expect =
    outcome (fun () ->
        let k = ref 0 in
        for i = 0 to c.len - 1 do
          if Host_buffer.get mask (c.o1 + i) <> 0.0 then begin
            Host_buffer.set shim (c.od + !k) (Host_buffer.get src (c.o0 + i));
            incr k
          end
        done;
        !k)
  in
  got = expect && same_buffer bulk shim

(* Indices cycle through [src]; when [arg land 3 = 0] one past its end
   is reachable, so the out-of-range path is exercised too. *)
let check_gather c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let n = Array.length c.a0 in
  let modulus = if c.arg land 3 = 0 then n + 1 else n in
  let idx =
    Host_buffer.of_array Dtype.I32
      (Array.init c.len (fun i -> float_of_int (((i * 7) + c.seg) mod modulus)))
  in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  let raised f = match outcome f with Ok () -> false | Error _ -> true in
  let got = raised (fun () -> Host_buffer.gather ~src ~idx ~dst:bulk ~len:c.len) in
  let expect =
    raised (fun () ->
        for i = 0 to c.len - 1 do
          let j = int_of_float (Host_buffer.get idx i) in
          if j < 0 || j >= n then invalid_arg "index out of range";
          Host_buffer.set shim i (Host_buffer.get src j)
        done)
  in
  got = expect && same_buffer bulk shim

let check_bitcasts c =
  let n = Array.length c.a0 in
  let pad = Array.init (n + 1) (fun i -> if i < Array.length c.d0 then c.d0.(i) else 0.0) in
  let x = Host_buffer.of_array Dtype.F16 c.a0 in
  let u_bulk = Host_buffer.of_array Dtype.U16 pad in
  let u_shim = Host_buffer.of_array Dtype.U16 pad in
  Host_buffer.bitcast_f16_to_u16 ~src:x ~dst:u_bulk;
  for i = 0 to n - 1 do
    Host_buffer.set u_shim i (float_of_int (Fp16.of_float (Host_buffer.get x i)))
  done;
  let u = Host_buffer.of_array Dtype.U16 c.a0 in
  let x_bulk = Host_buffer.of_array Dtype.F16 pad in
  let x_shim = Host_buffer.of_array Dtype.F16 pad in
  Host_buffer.bitcast_u16_to_f16 ~src:u ~dst:x_bulk;
  for i = 0 to n - 1 do
    Host_buffer.set x_shim i (Fp16.to_float (int_of_float (Host_buffer.get u i)))
  done;
  same_buffer u_bulk u_shim && same_buffer x_bulk x_shim

(* The converting blit against [Dtype.cast] from the source dtype,
   which is what [Vec.cast] and the MTE converting copies promise. *)
let check_blit_cast c =
  let src = Host_buffer.of_array c.dt2 c.a0 in
  let bulk = Host_buffer.of_array c.dt c.d0 in
  let shim = Host_buffer.of_array c.dt c.d0 in
  Host_buffer.blit ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od ~len:c.len;
  for i = 0 to c.len - 1 do
    Host_buffer.set_cast shim (c.od + i) ~from:c.dt2
      (Host_buffer.get src (c.o0 + i))
  done;
  same_buffer bulk shim

let all_binops = Host_buffer.[ Add; Sub; Mul; Max; Min ]
let all_scalar_ops = Host_buffer.[ Adds; Muls; Maxs; Mins ]

(* Every kernel, every operator, for every source dtype into every
   integer dtype: the hoisted integer arms against the scalar
   [Dtype.round]/[Dtype.cast] shim. *)
let prop_integer_arms =
  QCheck.Test.make ~name:"integer arms: every source dtype into I8/I16/U16/I32"
    ~count:150 arb_case (fun c ->
      List.iter
        (fun dt2 ->
          List.iter
            (fun dt ->
              let c = { c with dt; dt2 } in
              let checks =
                [
                  ("blit/cast", check_blit_cast c);
                  ("of_array", check_of_array_roundtrip c);
                  ("map1_f", check_map1_f c);
                  ("select_range", check_select_range c);
                  ("fill_range", check_fill_range c);
                  ("arange_range", check_arange_range c);
                  ("scan_accum", check_scan_accum c);
                  ("compress", check_compress c);
                  ("gather", check_gather c);
                ]
                @ List.map (fun bop -> ("map2_binop", check_map2_binop { c with bop })) all_binops
                @ List.map (fun bop -> ("scan_segment", check_scan_segment { c with bop })) all_binops
                @ List.map (fun sop -> ("map1_scalar", check_map1_scalar { c with sop })) all_scalar_ops
                @ List.map (fun cmp -> ("compare_scalar", check_compare_scalar cmp c)) all_cmps
                @ List.map (fun cmp -> ("compare", check_compare cmp c)) all_cmps
              in
              List.iter
                (fun (name, ok) ->
                  if not ok then
                    QCheck.Test.fail_reportf "%s: %s <- %s" name
                      (Dtype.to_string dt) (Dtype.to_string dt2))
                checks)
            int_dtypes)
        all_dtypes;
      true)

let prop_bit_kernels =
  QCheck.Test.make ~name:"map1_bits/map2_bits = unsigned-field shim" ~count:200
    arb_case (fun c ->
      List.iter
        (fun dt2 ->
          List.iter
            (fun dt ->
              let c = { c with dt; dt2 } in
              let ok =
                List.for_all (fun op -> check_map1_bits op c) all_bitops
                && List.for_all
                     (fun op -> check_map2_bits op c)
                     Host_buffer.[ And; Or; Xor ]
              in
              if not ok then
                QCheck.Test.fail_reportf "bits: %s <- %s" (Dtype.to_string dt)
                  (Dtype.to_string dt2))
            int_dtypes)
        int_dtypes;
      true)

let prop_compare = test ~name:"compare/compare_scalar = Float.compare shim" (fun c ->
    List.for_all (fun cmp -> check_compare_scalar cmp c && check_compare cmp c) all_cmps)

let prop_compress = test ~name:"compress = scalar append loop" check_compress
let prop_gather = test ~name:"gather = scalar index loop" check_gather
let prop_bitcasts = test ~name:"f16/u16 bitcasts = Fp16 codec loop" check_bitcasts

(* ------------------------------------------------------------------ *)
(* Allocation guard: the integer element paths run without allocating
   per element. Measured on the second run (the first warms the storage
   pool); a boxed float per element would cost >= 2 words. *)

let n_alloc = 1 lsl 20

let minor_words_per_elem f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n_alloc

let check_alloc name f =
  let w = minor_words_per_elem f in
  if w > 0.5 then Alcotest.failf "%s: %.3f minor words per element (> 0.5)" name w

let test_alloc_mcscan_i8 () =
  let dev = Device.create ~domains:1 () in
  let x =
    Device.of_array dev Dtype.I8 ~name:"x"
      (Array.init n_alloc (fun i -> float_of_int (((i * 7) mod 3) - 1)))
  in
  check_alloc "I8 McScan" (fun () ->
      let y, _ = Scan.Mcscan.run dev x in
      Global_tensor.retire y)

(* The radix sort's bit-extraction pass: shift, and, xor, cast. *)
let test_alloc_u16_map () =
  let dev = Device.create ~domains:1 () in
  let keys =
    Device.of_array dev Dtype.U16 ~name:"keys"
      (Array.init n_alloc (fun i -> float_of_int ((i * 40503) land 0xFFFF)))
  in
  let out = Device.alloc dev Dtype.I8 n_alloc ~name:"flags" in
  check_alloc "U16 Map_kernel pass" (fun () ->
      ignore
        (Ops.Map_kernel.run ~scratch:[ Dtype.U16 ] dev ~inputs:[ keys ]
           ~output:out ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
             match ins, scratch with
             | [ src ], [ tmp ] ->
                 Vec.shift_right ctx ~vec ~src ~dst:tmp ~bits:3 ~len ();
                 Vec.bit_ands ctx ~vec ~src:tmp ~dst:tmp ~mask:1 ~len ();
                 Vec.bit_xors ctx ~vec ~src:tmp ~dst:tmp ~mask:1 ~len ();
                 Vec.cast ctx ~vec ~src:tmp ~dst:out ~len ()
             | _, _ -> assert false)))

let test_alloc_split () =
  let dev = Device.create ~domains:1 () in
  let x =
    Device.of_array dev Dtype.U16 ~name:"x"
      (Array.init n_alloc (fun i -> float_of_int ((i * 40503) land 0xFFFF)))
  in
  let flags =
    Device.of_array dev Dtype.I8 ~name:"f"
      (Array.init n_alloc (fun i -> float_of_int ((i * 40503) land 1)))
  in
  check_alloc "Split" (fun () ->
      let r = Ops.Split.run ~with_indices:true dev ~x ~flags () in
      Global_tensor.retire r.Ops.Split.values;
      Option.iter Global_tensor.retire r.Ops.Split.indices)

let () =
  Alcotest.run "bulk"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_map2_binop;
            prop_map1_scalar;
            prop_map1_f;
            prop_select_range;
            prop_fill_range;
            prop_arange_range;
            prop_blit;
            prop_blit_overlap;
            prop_reduce_add;
            prop_reduce_max;
            prop_scan_accum;
            prop_scan_segment;
            prop_of_array_roundtrip;
            prop_f16_set_is_fp16_round;
            prop_f32_set_is_round_f32;
            prop_integer_arms;
            prop_bit_kernels;
            prop_compare;
            prop_compress;
            prop_gather;
            prop_bitcasts;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "I8 McScan 1M" `Quick test_alloc_mcscan_i8;
          Alcotest.test_case "U16 map pass 1M" `Quick test_alloc_u16_map;
          Alcotest.test_case "Split 1M" `Quick test_alloc_split;
        ] );
    ]
