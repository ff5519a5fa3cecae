(* Flat Bigarray storage: one float64 payload word per element, with
   the declared dtype enforced on every write. Bigarray data lives
   outside the OCaml heap, so the GC never scans simulator tensors
   (which matters under domain parallelism) and same-dtype [blit] is a
   plain memmove. The scalar [get]/[set] API is kept as a compatibility
   shim; hot paths go through the bulk kernels below, which validate
   ranges once and run dtype-specialised unsafe loops — the per-element
   closure indirection and bounds checks of the historical
   [float array] representation are gone. *)

module BA1 = Bigarray.Array1

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type t = { dtype : Dtype.t; data : ba; mutable retired : bool }

(* Float rounding, local to this module. The classic (non-flambda)
   native backend boxes every float crossing a non-inlined call
   boundary, and the dev profile compiles with -opaque, which disables
   cross-module inlining altogether — a bulk kernel calling
   [Fp16.round] per element would allocate 4 words per element and
   keep the GC busy. The fp16 encode trick is therefore replicated
   here as an [@inline] local (pinned bit-for-bit to [Fp16.of_float]
   by the exhaustive suites in test_fp16.ml / test_bulk.ml); the
   decode table is shared with [Fp16]. *)

let f16_decode_table = Fp16.to_float_table

let[@inline] f16_encode f =
  let b = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF in
  let sign = (b lsr 16) land 0x8000 in
  let a = b land 0x7FFFFFFF in
  if a >= 0x47800000 then
    if a > 0x7F800000 then sign lor 0x7E00 else sign lor 0x7C00
  else if a >= 0x38800000 then
    let odd = (a lsr 13) land 1 in
    let a = a + 0xFFF + odd - (112 lsl 23) in
    sign lor (a lsr 13)
  else if a >= 0x33000000 then
    let m = a land 0x7FFFFF lor 0x800000 in
    let shift = 126 - (a lsr 23) in
    let base = m lsr shift in
    let rest = m land ((1 lsl shift) - 1) in
    let half = 1 lsl (shift - 1) in
    if rest > half || (rest = half && base land 1 = 1) then sign lor (base + 1)
    else sign lor base
  else sign

let[@inline] round_f16 f = Array.unsafe_get f16_decode_table (f16_encode f)
let[@inline] round_f32 f =
  (* NaN payloads pass through untouched, exactly as [Dtype.round_f32]:
     the f32 bit roundtrip would truncate them, which the equivalence
     suite in test_bulk.ml observes bit for bit. *)
  if Float.is_nan f then f else Int32.float_of_bits (Int32.bits_of_float f)

(* Integer stores: truncate toward zero, then wrap to the field with
   [Dtype]'s shift/mask form. The shift and mask are hoisted out of
   each integer arm ([Dtype.int_shift]/[Dtype.int_keep]); the element
   work is three primitive int ops, with no call and no boxing. *)
let[@inline] wrap_int ~shift ~keep v =
  float_of_int (((int_of_float v lsl shift) asr shift) land keep)

(* The dtype dispatch of an element store, resolved once per kernel
   call. Hot kernels spell out an F16, an F32 and an integer arm;
   [round_by] serves the remaining (cold) operator/dtype pairs with one
   predictable branch per element and still no allocation. *)
type rounding = R_f16 | R_f32 | R_int of { shift : int; keep : int }

let rounding = function
  | Dtype.F16 -> R_f16
  | Dtype.F32 -> R_f32
  | dt -> R_int { shift = Dtype.int_shift dt; keep = Dtype.int_keep dt }

let[@inline] round_by r v =
  match r with
  | R_f16 -> round_f16 v
  | R_f32 -> round_f32 v
  | R_int { shift; keep } -> wrap_int ~shift ~keep v

(* Storage pool. Simulated scratchpads are allocated per block per
   launch — without reuse, a 20-block McScan launch maps, faults in and
   unmaps ~10 MB of 128 KB Bigarrays per run, and the GC's custom-block
   accounting paces dozens of major slices per run to reclaim them.
   Retired payloads are kept on a size-keyed free list (capped; excess
   falls back to the GC) and handed back out by [create], zero-filled,
   so steady-state launches allocate no storage at all. The pool is
   shared across domains (blocks allocate and finish concurrently under
   domain-parallel launches), hence the mutex. *)
let pool : (int, ba list ref) Hashtbl.t = Hashtbl.create 16
let pool_mutex = Mutex.create ()
let pool_bytes = ref 0
let pool_cap_bytes = 64 * 1024 * 1024

let pool_take n =
  Mutex.lock pool_mutex;
  let r =
    match Hashtbl.find_opt pool n with
    | Some ({ contents = ba :: rest } as cell) ->
        cell := rest;
        pool_bytes := !pool_bytes - (n * 8);
        Some ba
    | _ -> None
  in
  Mutex.unlock pool_mutex;
  r

let pool_put (data : ba) =
  let n = BA1.dim data in
  let bytes = n * 8 in
  if n > 0 then begin
    Mutex.lock pool_mutex;
    if !pool_bytes + bytes <= pool_cap_bytes then begin
      (match Hashtbl.find_opt pool n with
      | Some cell -> cell := data :: !cell
      | None -> Hashtbl.add pool n (ref [ data ]));
      pool_bytes := !pool_bytes + bytes
    end;
    Mutex.unlock pool_mutex
  end

let create dtype n =
  if n < 0 then invalid_arg "Host_buffer.create: negative length";
  let data =
    match pool_take n with
    | Some data -> data
    | None -> BA1.create Bigarray.float64 Bigarray.c_layout n
  in
  BA1.fill data 0.0;
  (* Array1.create does not zero; pooled payloads hold stale data *)
  { dtype; data; retired = false }

let retire t =
  if not t.retired then begin
    t.retired <- true;
    pool_put t.data
  end

let dtype t = t.dtype
let data t = t.data
let length t = BA1.dim t.data
let size_bytes t = length t * Dtype.size_bytes t.dtype

(* Bounds-checked Array1 access raises the same
   [Invalid_argument "index out of bounds"] the historical array
   representation did. *)
let get t i = BA1.get t.data i
let set t i v = BA1.set t.data i (Dtype.round t.dtype v)
let set_cast t i ~from v = BA1.set t.data i (Dtype.cast ~from ~into:t.dtype v)

(* Unsafe accessors for validated inner loops (Cube's structured
   matmul evaluators). [unsafe_set] still rounds through the dtype. *)
let[@inline] unsafe_get t i = BA1.unsafe_get t.data i
let[@inline] unsafe_set t i v = BA1.unsafe_set t.data i (Dtype.round t.dtype v)

let check_range name t off len =
  if len < 0 || off < 0 || off + len > length t then
    invalid_arg (Printf.sprintf "Host_buffer.%s: range out of bounds" name)

let fill t v =
  let v = Dtype.round t.dtype v in
  BA1.fill t.data v

let fill_range t ~off ~len v =
  check_range "fill_range" t off len;
  if len > 0 then BA1.fill (BA1.sub t.data off len) (Dtype.round t.dtype v)

(* Bulk element conversion with the dtype dispatch hoisted out of the
   loop; ranges must already be validated. Shared by the converting
   [blit] path and [load_array]. A converting store is [Dtype.cast],
   which only depends on the destination: float-to-integer truncation
   is the integer wrap's own [int_of_float], and every source value is
   a float either way. *)
let convert_into ~(dst : t) ~(src : ba) ~src_off ~dst_off ~len =
  let d = dst.data in
  match rounding dst.dtype with
  | R_f16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (BA1.unsafe_get src (src_off + i)))
      done
  | R_f32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (BA1.unsafe_get src (src_off + i)))
      done
  | R_int { shift; keep } ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (wrap_int ~shift ~keep (BA1.unsafe_get src (src_off + i)))
      done

let blit ~src ~src_off ~dst ~dst_off ~len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > length src
    || dst_off + len > length dst
  then invalid_arg "Host_buffer.blit: range out of bounds";
  if len > 0 then
    if Dtype.equal src.dtype dst.dtype then
      (* Stored values are already canonical for the dtype: move them
         wholesale (memmove; overlap-safe), no per-element rounding. *)
      BA1.blit (BA1.sub src.data src_off len) (BA1.sub dst.data dst_off len)
    else
      convert_into ~dst ~src:src.data ~src_off ~dst_off ~len

(* A float array is a Bigarray-compatible source only by value, so
   stage it element-wise through the same three arms. *)
let load_array t a =
  let n = Array.length a in
  check_range "load_array" t 0 n;
  let d = t.data in
  match rounding t.dtype with
  | R_f16 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f16 (Array.unsafe_get a i))
      done
  | R_f32 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f32 (Array.unsafe_get a i))
      done
  | R_int { shift; keep } ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (wrap_int ~shift ~keep (Array.unsafe_get a i))
      done

let of_array dt a =
  let t = create dt (Array.length a) in
  load_array t a;
  t

(* A plain loop into an unboxed float array: [Array.init] with a
   closure would box every element on its way out. *)
let to_array t =
  let n = length t in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (BA1.unsafe_get t.data i)
  done;
  a

let copy t =
  let n = length t in
  let data = BA1.create Bigarray.float64 Bigarray.c_layout n in
  BA1.blit t.data data;
  { dtype = t.dtype; data; retired = false }

(* ------------------------------------------------------------------ *)
(* Bulk kernels. Each validates its ranges once, hoists the dtype and
   operator dispatch out of the loop, and preserves the exact operand
   order and rounding of the scalar shim it replaces (NaN payloads and
   float non-associativity make the order observable bit for bit). *)

type binop = Add | Sub | Mul | Max | Min
type scalar_op = Adds | Muls | Maxs | Mins

let[@inline] apply op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Max -> Float.max a b
  | Min -> Float.min a b

(* dst.(i) <- round (src0.(i) op src1.(i)); src0 is the left operand,
   as in [Vec.binop]'s historical [fun_of_binop] closures. *)
let map2_binop op ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "map2_binop" src0 src0_off len;
  check_range "map2_binop" src1 src1_off len;
  check_range "map2_binop" dst dst_off len;
  let a = src0.data and b = src1.data and d = dst.data in
  match op, rounding dst.dtype with
  | Add, R_f16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16
             (BA1.unsafe_get a (src0_off + i) +. BA1.unsafe_get b (src1_off + i)))
      done
  | Add, R_f32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32
             (BA1.unsafe_get a (src0_off + i) +. BA1.unsafe_get b (src1_off + i)))
      done
  | Max, R_f16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16
             (Float.max
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done
  | Max, R_f32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32
             (Float.max
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done
  | op, R_int { shift; keep } ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (wrap_int ~shift ~keep
             (apply op
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done
  | op, r ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_by r
             (apply op
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done

(* The historical [Vec] operand order: [adds]/[muls] put the element
   first, [maxs]/[mins] partially applied the scalar first. *)
let[@inline] apply_scalar op v scalar =
  match op with
  | Adds -> v +. scalar
  | Muls -> v *. scalar
  | Maxs -> Float.max scalar v
  | Mins -> Float.min scalar v

(* dst.(i) <- round (src.(i) op scalar), in [apply_scalar]'s order. *)
let map1_scalar op ~src ~src_off ~dst ~dst_off ~scalar ~len =
  check_range "map1_scalar" src src_off len;
  check_range "map1_scalar" dst dst_off len;
  let s = src.data and d = dst.data in
  match op, rounding dst.dtype with
  | Adds, R_f16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (BA1.unsafe_get s (src_off + i) +. scalar))
      done
  | Adds, R_f32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (BA1.unsafe_get s (src_off + i) +. scalar))
      done
  | Maxs, R_f16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (Float.max scalar (BA1.unsafe_get s (src_off + i))))
      done
  | Maxs, R_f32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (Float.max scalar (BA1.unsafe_get s (src_off + i))))
      done
  | op, R_int { shift; keep } ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (wrap_int ~shift ~keep
             (apply_scalar op (BA1.unsafe_get s (src_off + i)) scalar))
      done
  (* Float arms written out like the historical closures (see
     [scan_segment] on why the operand shape matters for NaNs). *)
  | Muls, r ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_by r (BA1.unsafe_get s (src_off + i) *. scalar))
      done
  | Mins, r ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_by r (Float.min scalar (BA1.unsafe_get s (src_off + i))))
      done

(* Closure fall-back for the cold element-wise paths ([Vec.exp]): still
   one range validation and no per-element bounds checks, but the
   element function stays a closure. *)
let map1_f f ~src ~src_off ~dst ~dst_off ~len =
  check_range "map1_f" src src_off len;
  check_range "map1_f" dst dst_off len;
  let s = src.data and d = dst.data in
  let r = rounding dst.dtype in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i) (round_by r (f (BA1.unsafe_get s (src_off + i))))
  done

(* Bit-wise kernels view each element as the unsigned field of its
   dtype ([v land (2^bits - 1)], the historical
   [((v mod 2^bits) + 2^bits) mod 2^bits]) and store the integer result
   through the destination's rounding, exactly as the scalar
   [set (float_of_int r)] did. *)
type bitop = Shl | Shr | And | Or | Xor

let[@inline] apply_bits op u arg =
  match op with
  | Shl -> u lsl arg
  | Shr -> u lsr arg
  | And -> u land arg
  | Or -> u lor arg
  | Xor -> u lxor arg

let field_mask t = (1 lsl (Dtype.size_bytes t.dtype * 8)) - 1

let require_int name t =
  if not (Dtype.is_integer t.dtype) then
    invalid_arg
      (Printf.sprintf "Host_buffer.%s: bit-wise ops require an integer dtype"
         name)

let dst_int_params name t =
  require_int name t;
  (Dtype.int_shift t.dtype, Dtype.int_keep t.dtype)

let map1_bits op ~src ~src_off ~dst ~dst_off ~arg ~len =
  check_range "map1_bits" src src_off len;
  check_range "map1_bits" dst dst_off len;
  require_int "map1_bits" src;
  let shift, keep = dst_int_params "map1_bits" dst in
  let s = src.data and d = dst.data in
  let m = field_mask src in
  for i = 0 to len - 1 do
    let u = int_of_float (BA1.unsafe_get s (src_off + i)) land m in
    BA1.unsafe_set d (dst_off + i)
      (wrap_int ~shift ~keep (float_of_int (apply_bits op u arg)))
  done

let map2_bits op ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "map2_bits" src0 src0_off len;
  check_range "map2_bits" src1 src1_off len;
  check_range "map2_bits" dst dst_off len;
  require_int "map2_bits" src0;
  require_int "map2_bits" src1;
  let shift, keep = dst_int_params "map2_bits" dst in
  let a = src0.data and b = src1.data and d = dst.data in
  let m0 = field_mask src0 and m1 = field_mask src1 in
  for i = 0 to len - 1 do
    let u0 = int_of_float (BA1.unsafe_get a (src0_off + i)) land m0 in
    let u1 = int_of_float (BA1.unsafe_get b (src1_off + i)) land m1 in
    BA1.unsafe_set d (dst_off + i)
      (wrap_int ~shift ~keep (float_of_int (apply_bits op u0 u1)))
  done

(* Comparisons store 1/0 (as rounded into the destination) when
   [Float.compare a b] satisfies the predicate — the total order, so
   NaN compares equal to itself and below every other value. *)
type cmp = Eq | Ne | Lt | Le | Gt | Ge

let[@inline] holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let compare_scalar cmp ~src ~src_off ~dst ~dst_off ~scalar ~len =
  check_range "compare_scalar" src src_off len;
  check_range "compare_scalar" dst dst_off len;
  let s = src.data and d = dst.data in
  let one = Dtype.round dst.dtype 1.0 and zero = Dtype.round dst.dtype 0.0 in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i)
      (if holds cmp (Float.compare (BA1.unsafe_get s (src_off + i)) scalar)
       then one
       else zero)
  done

let compare cmp ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "compare" src0 src0_off len;
  check_range "compare" src1 src1_off len;
  check_range "compare" dst dst_off len;
  let a = src0.data and b = src1.data and d = dst.data in
  let one = Dtype.round dst.dtype 1.0 and zero = Dtype.round dst.dtype 0.0 in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i)
      (if
         holds cmp
           (Float.compare
              (BA1.unsafe_get a (src0_off + i))
              (BA1.unsafe_get b (src1_off + i)))
       then one
       else zero)
  done

(* Stream compaction: append [src.(i)] at [dst_off + k] for every
   non-zero [mask.(i)], in order; returns the count [k]. The
   destination is checked per append (it only has to hold the kept
   elements) and overflow raises the scalar [set]'s
   [Invalid_argument "index out of bounds"] after the writes that
   fitted, as the historical loop did. *)
let compress ~src ~src_off ~mask ~mask_off ~dst ~dst_off ~len =
  check_range "compress" src src_off len;
  check_range "compress" mask mask_off len;
  let s = src.data and m = mask.data and d = dst.data in
  let cap = length dst in
  let r = rounding dst.dtype in
  let same = Dtype.equal src.dtype dst.dtype in
  let k = ref dst_off in
  for i = 0 to len - 1 do
    if BA1.unsafe_get m (mask_off + i) <> 0.0 then begin
      if !k < 0 || !k >= cap then invalid_arg "index out of bounds";
      let v = BA1.unsafe_get s (src_off + i) in
      (* Same-dtype values are already canonical: move them as is. *)
      BA1.unsafe_set d !k (if same then v else round_by r v);
      incr k
    end
  done;
  !k - dst_off

(* dst.(i) <- round src.(idx.(i)); indices are checked against [src]
   one by one, the writes before a bad index stay (historical order). *)
let gather ~src ~idx ~dst ~len =
  check_range "gather" idx 0 len;
  check_range "gather" dst 0 len;
  let s = src.data and ix = idx.data and d = dst.data in
  let n = length src in
  let r = rounding dst.dtype in
  for i = 0 to len - 1 do
    let j = int_of_float (BA1.unsafe_get ix i) in
    if j < 0 || j >= n then
      invalid_arg (Printf.sprintf "Host_buffer.gather: index %d out of range" j);
    BA1.unsafe_set d i (round_by r (BA1.unsafe_get s j))
  done

(* Reinterpretation between fp16 values and their u16 bit patterns
   (the zero-cost bitcast of the radix sort). Both directions produce
   values already canonical for the destination — a pattern in
   [0, 0xFFFF], a decoded fp16 — so no further rounding applies. *)
let check_bitcast name ~src ~dst ~from ~into =
  if not (Dtype.equal src.dtype from && Dtype.equal dst.dtype into) then
    invalid_arg (Printf.sprintf "Host_buffer.%s: dtype mismatch" name);
  if length dst < length src then
    invalid_arg (Printf.sprintf "Host_buffer.%s: destination too short" name)

let bitcast_f16_to_u16 ~src ~dst =
  check_bitcast "bitcast_f16_to_u16" ~src ~dst ~from:Dtype.F16 ~into:Dtype.U16;
  let s = src.data and d = dst.data in
  for i = 0 to length src - 1 do
    BA1.unsafe_set d i (float_of_int (f16_encode (BA1.unsafe_get s i)))
  done

let bitcast_u16_to_f16 ~src ~dst =
  check_bitcast "bitcast_u16_to_f16" ~src ~dst ~from:Dtype.U16 ~into:Dtype.F16;
  let s = src.data and d = dst.data in
  for i = 0 to length src - 1 do
    BA1.unsafe_set d i
      (Array.unsafe_get f16_decode_table
         (int_of_float (BA1.unsafe_get s i) land 0xFFFF))
  done

let select_range ~mask ~mask_off ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off
    ~len =
  check_range "select_range" mask mask_off len;
  check_range "select_range" src0 src0_off len;
  check_range "select_range" src1 src1_off len;
  check_range "select_range" dst dst_off len;
  let m = mask.data and a = src0.data and b = src1.data and d = dst.data in
  let r = rounding dst.dtype in
  for i = 0 to len - 1 do
    let v =
      if BA1.unsafe_get m (mask_off + i) <> 0.0 then
        BA1.unsafe_get a (src0_off + i)
      else BA1.unsafe_get b (src1_off + i)
    in
    BA1.unsafe_set d (dst_off + i) (round_by r v)
  done

let arange_range t ~off ~start ~len =
  check_range "arange_range" t off len;
  let d = t.data in
  let r = rounding t.dtype in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (off + i) (round_by r (start +. float_of_int i))
  done

(* Raw double-accumulator reductions, forward order, no final rounding
   (the caller rounds, matching the historical [Vec] reductions). *)
let reduce_add t ~off ~len =
  check_range "reduce_add" t off len;
  let d = t.data in
  let acc = ref 0.0 in
  for i = off to off + len - 1 do
    acc := !acc +. BA1.unsafe_get d i
  done;
  !acc

let reduce_max t ~off ~len =
  check_range "reduce_max" t off len;
  let d = t.data in
  let acc = ref neg_infinity in
  for i = off to off + len - 1 do
    acc := Float.max !acc (BA1.unsafe_get d i)
  done;
  !acc

(* Linear inclusive scan rounding through [dst]'s dtype at every step:
   acc <- round (acc + src.(i)), the accumulation order of the
   historical [Vec.cumsum] loop. *)
let scan_accum ~src ~dst ~len =
  check_range "scan_accum" src 0 len;
  check_range "scan_accum" dst 0 len;
  let s = src.data and d = dst.data in
  let acc = ref 0.0 in
  (match rounding dst.dtype with
  | R_f16 ->
      for i = 0 to len - 1 do
        acc := round_f16 (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done
  | R_f32 ->
      for i = 0 to len - 1 do
        acc := round_f32 (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done
  | R_int { shift; keep } ->
      for i = 0 to len - 1 do
        acc := wrap_int ~shift ~keep (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done);
  !acc

(* In-place segment-carry propagation: for each row of [seg] elements,
   combine every element with the running carry in the exact
   [map1_scalar] operand order (Add/Mul put the element left, Max/Min
   the carry left) and pick up the row's last stored value as the next
   carry. [seg = len] is one scalar-op sweep; [Scan_core.propagate_rows]
   is the [seg = s] case. Returns the final carry. *)
let scan_segment op t ~off ~len ~seg ~init =
  if seg <= 0 then invalid_arg "Host_buffer.scan_segment: seg must be positive";
  check_range "scan_segment" t off len;
  let d = t.data in
  let r = rounding t.dtype in
  let carry = ref init in
  let pos = ref 0 in
  while !pos < len do
    let row_len = min seg (len - !pos) in
    let base = off + !pos in
    let c = !carry in
    (match op, r with
    | Add, R_f16 ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_f16 (BA1.unsafe_get d j +. c))
        done
    | Add, R_f32 ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_f32 (BA1.unsafe_get d j +. c))
        done
    | Add, R_int { shift; keep } ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (wrap_int ~shift ~keep (BA1.unsafe_get d j +. c))
        done
    (* The remaining arms keep the operand shapes of the historical
       loop: when both operands of a commutative op are NaN, which
       payload survives depends on how the multiply is emitted. *)
    | Mul, r ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_by r (BA1.unsafe_get d j *. c))
        done
    | Sub, r ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_by r (BA1.unsafe_get d j -. c))
        done
    | Max, r ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_by r (Float.max c (BA1.unsafe_get d j)))
        done
    | Min, r ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_by r (Float.min c (BA1.unsafe_get d j)))
        done);
    carry := BA1.unsafe_get d (base + row_len - 1);
    pos := !pos + row_len
  done;
  !carry

let pp fmt t =
  let n = length t in
  let shown = min n 8 in
  Format.fprintf fmt "@[<h>%a[%d] = [" Dtype.pp t.dtype n;
  for i = 0 to shown - 1 do
    if i > 0 then Format.pp_print_string fmt "; ";
    Format.fprintf fmt "%g" (BA1.get t.data i)
  done;
  if shown < n then Format.pp_print_string fmt "; ...";
  Format.pp_print_string fmt "]@]"
