(** Typed host-side storage backing every simulated memory.

    A buffer stores elements as float64 words in a flat
    [Bigarray.Array1] (off the OCaml heap, so the GC never scans tensor
    payloads and domain-parallel launches share them safely) but
    enforces the declared {!Dtype.t} on every write: fp16 values are
    rounded through the binary16 codec, integers are truncated and
    wrapped. Reads return the stored (already canonical) value.

    The scalar {!get}/{!set} API is the compatibility shim; the bulk
    kernels below validate their ranges once and run dtype-specialised
    unsafe inner loops. Every bulk kernel reproduces the operand order
    and rounding of an equivalent scalar [get]/[set] loop bit for bit
    (NaN payloads and float non-associativity make the order
    observable); [test_bulk.ml] holds the QCheck equivalence suite. *)

type t

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat storage representation. *)

val data : t -> ba
(** The backing Bigarray — the escape hatch for engine evaluation
    loops that validate their ranges up front and round explicitly
    (see {!Cube}). Every element written must be canonical for
    {!dtype} (pass it through {!Dtype.round}, or an inlined equivalent
    hoisted out of the loop as {!Cube} does); the scalar/bulk APIs
    maintain that invariant automatically. *)

val create : Dtype.t -> int -> t
(** [create dt n] is a zero-initialised buffer of [n] elements. The
    storage may be recycled from the retired-buffer pool (see
    {!retire}); contents are zeroed either way. *)

val retire : t -> unit
(** Return the buffer's storage to the internal free pool for reuse by
    a later {!create} of the same length. Idempotent. The caller
    asserts the buffer is dead: reading or writing it after [retire]
    may observe or corrupt an unrelated buffer that inherited the
    storage. Used by {!Block.finish} to recycle a finished block's
    scratchpad tensors — simulated local memories never outlive their
    block, mirroring the hardware. The pool is domain-safe and
    size-capped (excess storage falls back to the GC). *)

val dtype : t -> Dtype.t
val length : t -> int

val size_bytes : t -> int
(** [length * Dtype.size_bytes dtype]. *)

val get : t -> int -> float
(** O(1); raises [Invalid_argument] when out of bounds. *)

val set : t -> int -> float -> unit
(** Stores [Dtype.round (dtype t) v]. *)

val set_cast : t -> int -> from:Dtype.t -> float -> unit
(** Stores with hardware cast semantics from another data type (see
    {!Dtype.cast}); used by casting data copies such as the L0C(fp32) to
    GM(fp16) path. *)

val unsafe_get : t -> int -> float
(** Unchecked read for loops that validated their range up front. *)

val unsafe_set : t -> int -> float -> unit
(** Unchecked {!set} (still rounds through the dtype). *)

val fill : t -> float -> unit

val fill_range : t -> off:int -> len:int -> float -> unit
(** Fill a sub-range with one rounded value (bulk [Vec.dup]). *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy applying the destination's rounding. Same-dtype copies move
    the (already canonical) values wholesale via a Bigarray blit
    (memmove, overlap-safe); converting copies pay the dtype dispatch
    once, not per element. *)

val of_array : Dtype.t -> float array -> t
(** Allocate and fill, rounding every element through the dtype codec
    with the dispatch hoisted out of the loop. *)

val load_array : t -> float array -> unit
(** Store [a] into the buffer's prefix, rounding each element; raises
    [Invalid_argument] when [a] is longer than the buffer. *)

val to_array : t -> float array
(** A fresh copy of the contents (unboxed float array). *)

val copy : t -> t

(** {2 Bulk kernels}

    Dtype-specialised loops over validated ranges. All raise
    [Invalid_argument] on out-of-range spans. Each hoists the
    destination's rounding out of the loop into an F16, an F32 or an
    integer arm (the integer wrap in {!Dtype.int_shift} /
    {!Dtype.int_keep} form), so no element store allocates. *)

type binop = Add | Sub | Mul | Max | Min

type scalar_op = Adds | Muls | Maxs | Mins

val map2_binop :
  binop ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- round (src0.(i) op src1.(i))]; [src0] is the left
    operand. *)

val map1_scalar :
  scalar_op ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> scalar:float ->
  len:int -> unit
(** [dst.(i) <- round (src.(i) op scalar)] in the historical [Vec]
    operand order: [Adds]/[Muls] put the element left, [Maxs]/[Mins]
    the scalar left. *)

val map1_f :
  (float -> float) ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Closure fall-back for the cold element-wise paths; still a single
    range validation and a bounds-check-free loop. *)

type bitop = Shl | Shr | And | Or | Xor

val map1_bits :
  bitop ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> arg:int -> len:int -> unit
(** [dst.(i) <- round (u op arg)], [u] the unsigned field of
    [src.(i)] ([int_of_float v land (2^bits - 1)]); [Shl]/[Shr] shift
    by [arg]. Both buffers must have integer dtypes ([Invalid_argument]
    otherwise). *)

val map2_bits :
  bitop ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** Tensor-tensor {!map1_bits}: [dst.(i) <- round (u0 op u1)], each
    operand read as the unsigned field of its own dtype. With [Shl] or
    [Shr] the result is unspecified where [u1] exceeds
    [Sys.int_size]. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

val compare_scalar :
  cmp ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> scalar:float ->
  len:int -> unit
(** [dst.(i) <- 1] when [Float.compare src.(i) scalar] satisfies the
    predicate, else [0] (NaN is equal to itself and below every other
    value). *)

val compare :
  cmp ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** Tensor-tensor {!compare_scalar}. *)

val compress :
  src:t -> src_off:int -> mask:t -> mask_off:int -> dst:t -> dst_off:int ->
  len:int -> int
(** Stream compaction: append every [src.(src_off+i)] whose
    [mask.(mask_off+i)] is non-zero to [dst] from [dst_off] on, in
    order, rounding through [dst]'s dtype; returns the count. The
    destination need only hold the kept elements: an append past its
    end raises [Invalid_argument "index out of bounds"], the earlier
    appends done. *)

val gather : src:t -> idx:t -> dst:t -> len:int -> unit
(** [dst.(i) <- round src.(idx.(i))] for [i < len]; an index outside
    [src] raises [Invalid_argument], the earlier stores done. *)

val bitcast_f16_to_u16 : src:t -> dst:t -> unit
(** [dst.(i) <- float (Fp16.of_float src.(i))] for every element of
    the F16 buffer [src]: its binary16 bit patterns, into the U16
    buffer [dst] (at least as long). *)

val bitcast_u16_to_f16 : src:t -> dst:t -> unit
(** The inverse, [dst.(i) <- Fp16.to_float (int src.(i))], from U16
    into F16. *)

val select_range :
  mask:t -> mask_off:int -> src0:t -> src0_off:int -> src1:t ->
  src1_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- if mask.(i) <> 0 then src0.(i) else src1.(i)]. *)

val arange_range : t -> off:int -> start:float -> len:int -> unit
(** [t.(off+i) <- round (start + i)]. *)

val reduce_add : t -> off:int -> len:int -> float
(** Forward-order raw double accumulation, no final rounding (the
    caller rounds, as the engine ops always did). *)

val reduce_max : t -> off:int -> len:int -> float
(** [Float.max] fold from [neg_infinity], accumulator left. *)

val scan_accum : src:t -> dst:t -> len:int -> float
(** Linear inclusive scan: [acc <- round_dst (acc + src.(i));
    dst.(i) <- acc]; returns the final accumulator ([Vec.cumsum]'s
    historical loop). *)

val scan_segment : binop -> t -> off:int -> len:int -> seg:int -> init:float -> float
(** In-place segment-carry propagation: combine each row of [seg]
    elements with the running carry (exact {!map1_scalar} operand
    order), the carry re-read from the row's last stored value.
    Returns the final carry. [seg = 1] degenerates to an element-wise
    carry chain; raises [Invalid_argument] when [seg <= 0]. *)

val pp : Format.formatter -> t -> unit
(** Debug printer showing dtype, length and the first few elements. *)
