(* A minimal JSON value type, printer and parser — just enough for the
   telemetry JSONL format, with deterministic rendering (field order is
   the order given; floats print via %.12g so equal values render
   identically). No external dependency: the toolchain pins what the
   container bakes in. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ------------------------------------------------------------ *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Shortest of the two printf forms that round-trips exactly: %.12g is
   readable but loses sub-ms precision on epoch-scale wall timestamps,
   where %.17g is exact. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float v -> Buffer.add_string buf (float_repr v)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------- *)

exception Fail of string

(* The parser recurses once per nesting level; past this depth the
   input is refused, so hostile input cannot overflow the stack. *)
let max_depth = 512

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > len then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_string buf ("\\u" ^ hex)
          | None -> fail "bad \\u escape");
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && number_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some v -> Float v
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some n -> Int n
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "empty input"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* -- accessors ----------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_float = function Float v -> Some v | Int n -> Some (float_of_int n) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
