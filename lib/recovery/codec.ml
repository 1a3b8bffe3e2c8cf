(* Byte-deterministic token codec for snapshots and journal records.

   Everything recovery persists is a single line of space-separated
   tokens: decimal integers, floats as the 16 hex digits of their
   IEEE-754 bit pattern (bit-exact for every double, including
   infinities, NaNs and signed zeros), booleans, and
   percent-encoded strings (so tenant or node names with spaces,
   newlines or '%' cannot break the framing).  The reader is the exact
   inverse and fails loudly with {!Decode} — a snapshot that does not
   parse is corrupt, never half-loaded. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

(* ---- writer --------------------------------------------------------------------- *)

type writer = { buf : Buffer.t; mutable first : bool }

let writer () = { buf = Buffer.create 256; first = true }

let sep w =
  if w.first then w.first <- false else Buffer.add_char w.buf ' '

let int w i =
  sep w;
  Buffer.add_string w.buf (string_of_int i)

(* Floats are written as the 16 hex digits of their IEEE-754 bit pattern:
   bit-exact for every value including infinities, NaNs and signed zeros,
   and an order of magnitude cheaper to produce than printf float
   formatting — float tokens dominate journal records, so this is the
   codec's hot path. *)
let hex_digits = "0123456789abcdef"

let float w f =
  sep w;
  let bits = Int64.bits_of_float f in
  (* split into two plain ints up front so the digit loop runs on unboxed
     arithmetic — per-iteration Int64 ops would allocate *)
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) land 0xffffffff in
  let lo = Int64.to_int bits land 0xffffffff in
  let b = Bytes.create 16 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i
      (String.unsafe_get hex_digits ((hi lsr ((7 - i) * 4)) land 0xf));
    Bytes.unsafe_set b (8 + i)
      (String.unsafe_get hex_digits ((lo lsr ((7 - i) * 4)) land 0xf))
  done;
  Buffer.add_bytes w.buf b

let bool w b =
  sep w;
  Buffer.add_char w.buf (if b then 't' else 'f')

let needs_escape c =
  c <= ' ' || c > '~' || c = '%'

let str w s =
  sep w;
  if String.for_all (fun c -> not (needs_escape c)) s && s <> "" then
    Buffer.add_string w.buf s
  else begin
    (* '%' guards the empty string and every byte outside the printable
       ASCII range *)
    Buffer.add_char w.buf '%';
    String.iter
      (fun c ->
        if needs_escape c then
          Buffer.add_string w.buf (Printf.sprintf "%%%02x" (Char.code c))
        else Buffer.add_char w.buf c)
      s
  end

let contents w = Buffer.contents w.buf

(* Reuse one writer across many small encodes (hot paths encode one
   ~100-byte record per simulated event — a fresh Buffer each time is
   pure allocator churn). *)
let reset w =
  Buffer.clear w.buf;
  w.first <- true

(* ---- reader --------------------------------------------------------------------- *)

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }

let token r =
  let n = String.length r.s in
  if r.pos >= n then fail "unexpected end of record at byte %d" r.pos;
  let start = r.pos in
  while r.pos < n && r.s.[r.pos] <> ' ' do
    r.pos <- r.pos + 1
  done;
  let t = String.sub r.s start (r.pos - start) in
  if r.pos < n then r.pos <- r.pos + 1;  (* skip the separator *)
  t

let r_int r =
  let t = token r in
  match int_of_string_opt t with
  | Some i -> i
  | None -> fail "expected int, got %S" t

let unhex c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> fail "bad hex digit %C" c

let r_float r =
  let t = token r in
  if String.length t <> 16 then fail "expected float bits, got %S" t;
  let hi = ref 0 and lo = ref 0 in
  for i = 0 to 7 do
    hi := (!hi lsl 4) lor unhex (String.unsafe_get t i);
    lo := (!lo lsl 4) lor unhex (String.unsafe_get t (8 + i))
  done;
  Int64.float_of_bits
    (Int64.logor
       (Int64.shift_left (Int64.of_int !hi) 32)
       (Int64.of_int !lo))

let r_bool r =
  match token r with
  | "t" -> true
  | "f" -> false
  | t -> fail "expected bool, got %S" t

let r_str r =
  let t = token r in
  if String.length t = 0 then fail "empty string token"
  else if t.[0] <> '%' then t
  else begin
    let b = Buffer.create (String.length t) in
    let i = ref 1 in
    let n = String.length t in
    while !i < n do
      if t.[!i] = '%' then begin
        if !i + 2 >= n then fail "truncated escape in %S" t;
        Buffer.add_char b
          (Char.chr ((unhex t.[!i + 1] * 16) + unhex t.[!i + 2]));
        i := !i + 3
      end
      else begin
        Buffer.add_char b t.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let at_end r = r.pos >= String.length r.s

(* ---- composite helpers ---------------------------------------------------------- *)

let list w xs ~item =
  int w (List.length xs);
  List.iter (fun x -> item w x) xs

let r_list r ~item =
  let n = r_int r in
  if n < 0 then fail "negative list length %d" n;
  List.init n (fun _ -> item r)

let assoc_floats w xs =
  list w xs ~item:(fun w (k, v) ->
      str w k;
      float w v)

let r_assoc_floats r =
  r_list r ~item:(fun r ->
      let k = r_str r in
      let v = r_float r in
      (k, v))
