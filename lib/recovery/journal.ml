(* Journal record framing.

   A journal segment is a text file:

     EVEREST-JRNL v2
     <payload> #<8 hex chars of fnv1a32(payload)>
     ...

   The payloads are {!Replay}'s chain records, one per chunk of events,
   each sealing the run's rolling digest so far.  Each record carries its
   own checksum so a torn tail (the crash wrote half a line) is detected
   record-locally: readers stop at the first record that fails its
   checksum and report how many bytes were valid, letting the store
   truncate the tail instead of rejecting the whole segment.  A segment
   whose header names another journal version is never read as torn: it
   raises {!Foreign_version}, and the store refuses it untouched. *)

let version = 2

let magic_prefix = "EVEREST-JRNL v"

let magic_line = magic_prefix ^ string_of_int version

(* Raised by the store when an armed crash point fires mid-append. *)
exception Crashed

(* FNV-1a 32-bit as 8 hex digits: record checksums are a torn-write
   detector, not a cryptographic seal. *)
let checksum payload =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    payload;
  Printf.sprintf "%08x" !h

(* "<payload> #<checksum>\n" *)
let encode_record payload =
  if String.contains payload '\n' then
    invalid_arg "Journal.encode_record: payload contains newline";
  payload ^ " #" ^ checksum payload ^ "\n"

let decode_record line =
  match String.rindex_opt line '#' with
  | Some i
    when i >= 1
         && line.[i - 1] = ' '
         && String.length line - i - 1 = 8 ->
      let payload = String.sub line 0 (i - 1) in
      let sum = String.sub line (i + 1) 8 in
      if String.equal sum (checksum payload) then Some payload else None
  | _ -> None

type segment = {
  sg_records : string list;  (* decoded payloads, in append order *)
  sg_torn : bool;            (* true when a trailing record failed its checksum *)
  sg_valid_bytes : int;      (* prefix length covering magic + valid records *)
}

(* Raised by [read_segment] on a complete header line naming another
   journal version. *)
exception Foreign_version of int

(* Lenient read: a missing file is an empty segment, a missing or
   unterminated magic line is fully torn, and decoding stops at the first
   invalid record.  A header of another version raises
   {!Foreign_version}: it is somebody else's data, not a torn write. *)
let read_segment path =
  if not (Sys.file_exists path) then
    { sg_records = []; sg_torn = false; sg_valid_bytes = 0 }
  else begin
    let ic = open_in_bin path in
    let raw =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines = String.split_on_char '\n' raw in
    match lines with
    | m :: rest when String.equal m magic_line && rest <> [] ->
        let valid = ref (String.length magic_line + 1) in
        let torn = ref false in
        let records = ref [] in
        let rec go = function
          | [] | [ "" ] -> ()
          | line :: tl -> (
              match decode_record line with
              | Some payload ->
                  records := payload :: !records;
                  valid := !valid + String.length line + 1;
                  go tl
              | None -> torn := true)
        in
        go rest;
        {
          sg_records = List.rev !records;
          sg_torn = !torn;
          sg_valid_bytes = !valid;
        }
    | m :: _ :: _ when String.starts_with ~prefix:magic_prefix m -> (
        let n = String.length magic_prefix in
        match int_of_string_opt (String.sub m n (String.length m - n)) with
        | Some found when found <> version -> raise (Foreign_version found)
        | _ -> { sg_records = []; sg_torn = true; sg_valid_bytes = 0 })
    | _ -> { sg_records = []; sg_torn = true; sg_valid_bytes = 0 }
  end
