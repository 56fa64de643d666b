(* Just enough JSON for BENCHMARK.json and the result files: the image has
   no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' -> incr pos; ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Error (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let lit w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then (pos := !pos + String.length w; v)
    else raise (Error (Printf.sprintf "bad literal at %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Error "unterminated string");
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Error (Printf.sprintf "bad object at %d" !pos))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> raise (Error (Printf.sprintf "bad array at %d" !pos))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do incr pos done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> raise (Error (Printf.sprintf "bad value at %d" start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Error "trailing data");
  v

let of_file f = parse (In_channel.with_open_bin f In_channel.input_all)

let field k = function
  | Obj l -> (match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_string = function Str s -> s | _ -> ""
let to_float = function Num f -> f | _ -> nan

(* Numbers as measured, every digit kept. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let str s = Printf.sprintf "\"%s\"" (String.escaped s)
let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"
