type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  Buffer.add_char buf '"';
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
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  (* JSON has no NaN/Infinity literals *)
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
  else Buffer.add_string buf "null"

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of int * string (* byte offset, message *)

let line_col s offset =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min (offset - 1) (String.length s - 1) do
    if s.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

type parser_state = { src : string; mutable pos : int }

let fail p msg = raise (Fail (p.pos, msg))
let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance p;
    skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail p (Printf.sprintf "expected '%c', found '%c'" c c')
  | None -> fail p (Printf.sprintf "expected '%c', found end of input" c)

let literal p word v =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then begin
    p.pos <- p.pos + n;
    v
  end
  else fail p (Printf.sprintf "invalid literal (expected %S)" word)

(* encode a Unicode scalar value as UTF-8 bytes *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 p =
  let digit () =
    match peek p with
    | Some c ->
      advance p;
      (match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ ->
        p.pos <- p.pos - 1;
        fail p "invalid hex digit in \\u escape")
    | None -> fail p "unterminated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' ->
      advance p;
      Buffer.contents buf
    | Some '\\' ->
      advance p;
      (match peek p with
      | None -> fail p "unterminated escape"
      | Some c ->
        advance p;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 p in
          (* surrogate pair: combine \uD800-\uDBFF with the low half *)
          let u =
            if u >= 0xd800 && u <= 0xdbff then begin
              if
                p.pos + 1 < String.length p.src
                && p.src.[p.pos] = '\\'
                && p.src.[p.pos + 1] = 'u'
              then begin
                p.pos <- p.pos + 2;
                let lo = hex4 p in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
                else fail p "invalid low surrogate in \\u escape"
              end
              else fail p "unpaired high surrogate in \\u escape"
            end
            else u
          in
          add_utf8 buf u
        | c ->
          p.pos <- p.pos - 1;
          fail p (Printf.sprintf "invalid escape '\\%c'" c)));
      go ()
    | Some c when Char.code c < 0x20 -> fail p "unescaped control character in string"
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  (match peek p with Some '-' -> advance p | _ -> ());
  let rec digits () =
    match peek p with
    | Some '0' .. '9' ->
      advance p;
      digits ()
    | _ -> ()
  in
  digits ();
  (match peek p with
  | Some '.' ->
    is_float := true;
    advance p;
    digits ()
  | _ -> ());
  (match peek p with
  | Some ('e' | 'E') ->
    is_float := true;
    advance p;
    (match peek p with Some ('+' | '-') -> advance p | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None ->
      p.pos <- start;
      fail p (Printf.sprintf "invalid number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* out of int range: degrade to float rather than fail *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None ->
        p.pos <- start;
        fail p (Printf.sprintf "invalid number %S" text))

(* The deepest nesting of arrays and objects a document may have.  The
   parse recurses once per level, and a deep stack makes every minor
   collection scan it, so input nested without bound would take time
   quadratic in its depth; the repository's own documents nest about 5
   deep. *)
let max_depth = 512

let rec parse_value p depth =
  skip_ws p;
  match peek p with
  | None -> fail p "expected a value, found end of input"
  | Some ('{' | '[') when depth = max_depth ->
    fail p (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws p;
        (match peek p with
        | Some '"' -> ()
        | _ -> fail p "expected '\"' to start an object key");
        let k = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p (depth + 1) in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance p;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail p "expected ',' or '}' in object"
      in
      fields []
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value p (depth + 1) in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items (v :: acc)
        | Some ']' ->
          advance p;
          List (List.rev (v :: acc))
        | _ -> fail p "expected ',' or ']' in array"
      in
      items []
    end
  | Some '"' -> String (parse_string p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match
    let v = parse_value p 0 in
    skip_ws p;
    (match peek p with
    | Some c -> fail p (Printf.sprintf "trailing garbage '%c' after value" c)
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Fail (offset, msg) ->
    let line, col = line_col s offset in
    Error (Printf.sprintf "line %d, column %d: %s" line col msg)

(* A directory opens but cannot be read.  The read runs to the end of the
   file rather than to a length taken first, so a file that shrinks under
   it is a short read, not End_of_file. *)
let of_file path =
  let contents =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match In_channel.input_all ic with
          | s -> Ok s
          | exception Sys_error msg -> Error (path ^ ": " ^ msg))
  in
  Result.bind contents (fun s ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (of_string s))

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let string_opt = function String s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None

let float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null -> Some nan (* the emitter writes non-finite floats as null *)
  | _ -> None

let list_opt = function List items -> Some items | _ -> None
