open Mvl_layout

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* --- encoding ---------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no NaN/Infinity; finite floats must re-parse as floats, so
   integral values keep an explicit ".0".  The shortest of %.15g/%.16g/
   %.17g that reads back exactly keeps records compact without losing
   bits on the round-trip. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.16g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            go (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            Buffer.add_char buf '"';
            add_escaped buf k;
            Buffer.add_string buf (if pretty then "\": " else "\":");
            go (depth + 1) v)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string ~pretty:true t)

(* --- parsing ----------------------------------------------------------- *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* encode a Unicode code point as UTF-8 *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               let cp = hex4 () in
               let cp =
                 (* surrogate pair *)
                 if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
                    && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = hex4 () in
                   if lo >= 0xDC00 && lo <= 0xDFFF then
                     0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                   else fail "invalid low surrogate"
                 end
                 else cp
               in
               add_utf8 buf cp
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) ->
      Error (Printf.sprintf "json: %s at byte %d" msg at)
  | exception Failure _ -> Error "json: malformed number"

(* --- accessors --------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let keys = function Obj fields -> List.map fst fields | _ -> []

let rec strip_volatile = function
  | Obj fields ->
      Obj
        (List.filter_map
           (fun (k, v) ->
             if
               k = "seconds" || k = "cache" || k = "spans"
               || k = "from_cache"
             then None
             else Some (k, strip_volatile v))
           fields)
  | List items -> List (List.map strip_volatile items)
  | (Null | Bool _ | Int _ | Float _ | String _) as atom -> atom

(* --- typed emitters ---------------------------------------------------- *)

let rec of_span (s : Mvl_span.Span.t) =
  Obj
    [
      ("name", String s.name);
      ("seconds", Float s.seconds);
      ("minor_words", Int (int_of_float s.minor_words));
      ("major_words", Int (int_of_float s.major_words));
      ("count", Int s.count);
      ("children", List (List.map of_span s.children));
    ]

let of_spans spans = List (List.map of_span spans)

let of_metrics (m : Layout.metrics) =
  Obj
    [
      ("width", Int m.Layout.width);
      ("height", Int m.Layout.height);
      ("area", Int m.Layout.area);
      ("layers", Int m.Layout.layers);
      ("volume", Int m.Layout.volume);
      ("max_wire", Int m.Layout.max_wire);
      ("total_wire", Int m.Layout.total_wire);
      ("vias", Int m.Layout.vias);
    ]

let rule_counts violations =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v : Check.violation) ->
      Hashtbl.replace tbl v.Check.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v.Check.rule)))
    violations;
  Hashtbl.fold (fun rule count acc -> (rule, Int count) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let violation_summary (r : Check.result) =
  Obj
    [
      ("checked", Bool true);
      ("mode", String (Check.mode_name r.Check.mode));
      ("count", Int (List.length r.Check.violations));
      ("truncated", Bool r.Check.truncated);
      ("rules", Obj (rule_counts r.Check.violations));
    ]

let not_validated = Obj [ ("checked", Bool false) ]

let of_check (r : Check.result) =
  match violation_summary r with
  | Obj fields ->
      Obj
        (fields
        @ [
            ( "violations",
              List
                (List.map
                   (fun (v : Check.violation) ->
                     Obj
                       [
                         ("rule", String v.Check.rule);
                         ("detail", String v.Check.detail);
                       ])
                   r.Check.violations) );
          ])
  | other -> other

let of_sim (r : Mvl_sim.Network_sim.result) =
  let open Mvl_sim.Network_sim in
  Obj
    [
      ("injected", Int r.injected);
      ("delivered", Int r.delivered);
      ("hop_total", Int r.hop_total);
      ("avg_latency", Float r.avg_latency);
      ("p50_latency", Int r.p50_latency);
      ("p95_latency", Int r.p95_latency);
      ("p99_latency", Int r.p99_latency);
      ("max_latency", Int r.max_latency);
      ("throughput", Float r.throughput);
      ("avg_hops", Float r.avg_hops);
      ("cycles", Int r.cycles);
      ("undrained", Int r.undrained);
      ( "latency_histogram",
        List
          (Array.to_list
             (Array.map
                (fun (lat, count) -> List [ Int lat; Int count ])
                r.latency_histogram)) );
    ]

let of_report (r : Report.t) =
  Obj
    [
      ("node_area", Int r.Report.node_area);
      ("node_area_share", Float r.Report.node_area_share);
      ("wire_count", Int r.Report.wire_count);
      ("wire_min", Int r.Report.wire_min);
      ("wire_median", Int r.Report.wire_median);
      ("wire_p90", Int r.Report.wire_p90);
      ("wire_max", Int r.Report.wire_max);
      ( "run_length_per_layer",
        Obj
          (List.map
             (fun (z, len) -> (string_of_int z, Int len))
             r.Report.segments_per_layer) );
      ("via_count", Int r.Report.via_count);
      ("active_layers", Int r.Report.active_layers);
    ]
