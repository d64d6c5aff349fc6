type t = { mem_name : string; data : Bytes.t; mutable hwm : int }

exception Fault of string

let create mem_name size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  { mem_name; data = Bytes.make size '\000'; hwm = 0 }

let name t = t.mem_name
let size t = Bytes.length t.data
let high_water t = t.hwm
let reset_high_water t = t.hwm <- 0

(* Writes (not [fill]'s poison pattern) advance the occupancy high-water
   mark: the trace's memory timeline samples it per step. *)
let touch t off len = if off + len > t.hwm then t.hwm <- off + len

let check t off len =
  if off < 0 || off + len > Bytes.length t.data then
    raise
      (Fault
         (Printf.sprintf "%s: access of %d byte(s) at offset %d outside [0, %d)"
            t.mem_name len off (Bytes.length t.data)))

let read_byte t off =
  check t off 1;
  Char.code (Bytes.get t.data off)

let write_byte t off v =
  check t off 1;
  touch t off 1;
  Bytes.set t.data off (Char.chr (v land 0xFF))

let sign_extend bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* Ternary occupies a full byte but only {-1,0,1} is valid, so bit rot
   ([flip_bit]) can leave a byte no fault-free flow ever stores. Fold it
   back into range deterministically: silent corruption must stay silent,
   not crash tensor validation on the read path. Tabulated per byte value,
   so the bulk decode is one load per element. *)
let ternary_of_byte =
  Array.init 256 (fun b ->
      let v = sign_extend 8 b in
      if v >= -1 && v <= 1 then v else (((v mod 3) + 3) mod 3) - 1)

let read_elt t (dt : Tensor.Dtype.t) off =
  match dt with
  | Tensor.Dtype.I8 -> sign_extend 8 (read_byte t off)
  | Tensor.Dtype.Ternary -> ternary_of_byte.(read_byte t off)
  | Tensor.Dtype.U7 -> read_byte t off land 0x7F
  | Tensor.Dtype.I16 ->
      check t off 2;
      sign_extend 16 (read_byte t off lor (read_byte t (off + 1) lsl 8))
  | Tensor.Dtype.I32 ->
      check t off 4;
      sign_extend 32
        (read_byte t off
        lor (read_byte t (off + 1) lsl 8)
        lor (read_byte t (off + 2) lsl 16)
        lor (read_byte t (off + 3) lsl 24))

let write_elt t (dt : Tensor.Dtype.t) off v =
  if not (Tensor.Dtype.in_range dt v) then
    raise
      (Fault
         (Printf.sprintf "%s: value %d out of range for %s at offset %d" t.mem_name v
            (Tensor.Dtype.to_string dt) off));
  match dt with
  | Tensor.Dtype.I8 | Tensor.Dtype.Ternary | Tensor.Dtype.U7 -> write_byte t off v
  | Tensor.Dtype.I16 ->
      check t off 2;
      write_byte t off v;
      write_byte t (off + 1) (v asr 8)
  | Tensor.Dtype.I32 ->
      check t off 4;
      write_byte t off v;
      write_byte t (off + 1) (v asr 8);
      write_byte t (off + 2) (v asr 16);
      write_byte t (off + 3) (v asr 24)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src src_off len;
  check dst dst_off len;
  touch dst dst_off len;
  Bytes.blit src.data src_off dst.data dst_off len

let read_tensor t off dt shape =
  let w = Tensor.Dtype.sim_bytes dt in
  let n = Array.fold_left ( * ) 1 shape in
  check t off (n * w);
  let out = Tensor.create dt shape in
  for i = 0 to n - 1 do
    Tensor.set_flat out i (read_elt t dt (off + (i * w)))
  done;
  out

(* Bulk flat-array codecs for the execution-plan fast path. Semantics are
   element-for-element those of [read_elt]/[write_elt] (same sign
   extension, same ternary rot fold, same range Fault on writes), but the
   bounds check happens once per call and bytes are accessed unsafely, so
   a whole padded window or output slab moves in one tight loop. *)

let read_flat_into t (dt : Tensor.Dtype.t) off dst ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length dst then
    invalid_arg "Mem.read_flat_into: destination range out of bounds";
  let w = Tensor.Dtype.sim_bytes dt in
  check t off (len * w);
  let data = t.data in
  (match dt with
  | Tensor.Dtype.I8 ->
      for i = 0 to len - 1 do
        Array.unsafe_set dst (pos + i)
          (sign_extend 8 (Char.code (Bytes.unsafe_get data (off + i))))
      done
  | Tensor.Dtype.Ternary ->
      for i = 0 to len - 1 do
        Array.unsafe_set dst (pos + i)
          (Array.unsafe_get ternary_of_byte (Char.code (Bytes.unsafe_get data (off + i))))
      done
  | Tensor.Dtype.U7 ->
      for i = 0 to len - 1 do
        Array.unsafe_set dst (pos + i) (Char.code (Bytes.unsafe_get data (off + i)) land 0x7F)
      done
  | Tensor.Dtype.I16 ->
      for i = 0 to len - 1 do
        let o = off + (i * 2) in
        Array.unsafe_set dst (pos + i)
          (sign_extend 16
             (Char.code (Bytes.unsafe_get data o)
             lor (Char.code (Bytes.unsafe_get data (o + 1)) lsl 8)))
      done
  | Tensor.Dtype.I32 ->
      for i = 0 to len - 1 do
        let o = off + (i * 4) in
        Array.unsafe_set dst (pos + i)
          (sign_extend 32
             (Char.code (Bytes.unsafe_get data o)
             lor (Char.code (Bytes.unsafe_get data (o + 1)) lsl 8)
             lor (Char.code (Bytes.unsafe_get data (o + 2)) lsl 16)
             lor (Char.code (Bytes.unsafe_get data (o + 3)) lsl 24)))
      done)

let write_flat_from t (dt : Tensor.Dtype.t) off src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Mem.write_flat_from: source range out of bounds";
  let w = Tensor.Dtype.sim_bytes dt in
  check t off (len * w);
  let data = t.data in
  let range_fault v i =
    (* As with a [write_elt] per element: the elements before [i] are
       written, so the high-water mark covers them. *)
    if i > 0 then touch t off (i * w);
    raise
      (Fault
         (Printf.sprintf "%s: value %d out of range for %s at offset %d" t.mem_name v
            (Tensor.Dtype.to_string dt)
            (off + (i * w))))
  in
  (match dt with
  | Tensor.Dtype.I8 | Tensor.Dtype.Ternary | Tensor.Dtype.U7 ->
      for i = 0 to len - 1 do
        let v = Array.unsafe_get src (pos + i) in
        if not (Tensor.Dtype.in_range dt v) then range_fault v i;
        Bytes.unsafe_set data (off + i) (Char.unsafe_chr (v land 0xFF))
      done
  | Tensor.Dtype.I16 ->
      for i = 0 to len - 1 do
        let v = Array.unsafe_get src (pos + i) in
        if not (Tensor.Dtype.in_range dt v) then range_fault v i;
        let o = off + (i * 2) in
        Bytes.unsafe_set data o (Char.unsafe_chr (v land 0xFF));
        Bytes.unsafe_set data (o + 1) (Char.unsafe_chr ((v asr 8) land 0xFF))
      done
  | Tensor.Dtype.I32 ->
      for i = 0 to len - 1 do
        let v = Array.unsafe_get src (pos + i) in
        if not (Tensor.Dtype.in_range dt v) then range_fault v i;
        let o = off + (i * 4) in
        Bytes.unsafe_set data o (Char.unsafe_chr (v land 0xFF));
        Bytes.unsafe_set data (o + 1) (Char.unsafe_chr ((v asr 8) land 0xFF));
        Bytes.unsafe_set data (o + 2) (Char.unsafe_chr ((v asr 16) land 0xFF));
        Bytes.unsafe_set data (o + 3) (Char.unsafe_chr ((v asr 24) land 0xFF))
      done);
  touch t off (len * w)

(* One range check and the bulk loop; the same bytes, [Fault]s and
   high-water mark as a [write_elt] per element. *)
let write_tensor t off tensor =
  write_flat_from t (Tensor.dtype tensor) off (Tensor.unsafe_data tensor) ~pos:0
    ~len:(Tensor.numel tensor)

let fill t v = Bytes.fill t.data 0 (Bytes.length t.data) (Char.chr (v land 0xFF))

(* Arena snapshot/restore: the execution plan captures the post-load L2
   image once at build time and rewinds the reused memory to it between
   requests, instead of re-serializing every weight tensor. *)
let image t = Bytes.copy t.data

let restore t img ~hwm =
  if Bytes.length img <> Bytes.length t.data then
    invalid_arg "Mem.restore: image size mismatch";
  Bytes.blit img 0 t.data 0 (Bytes.length img);
  t.hwm <- hwm

(* Fault injection's corruption primitive: toggles one bit without moving
   the high-water mark, so an injected flip is indistinguishable from bit
   rot in already-occupied storage. *)
let flip_bit t ~off ~bit =
  check t off 1;
  Bytes.set t.data off
    (Char.chr (Char.code (Bytes.get t.data off) lxor (1 lsl (bit land 7))))
