(* Textual format for DEX-like input: the ".dexsim" format.

   A hand-written one-pass recursive-descent parser (no parser-generator
   dependency), plus a printer that round-trips. Example:

   {v
   .apk demo
   .dex classes01
   .class com.demo.Main
   .method run params 1 regs 4 entry
     const v1, #2
     mul v2, v0, v1
     ifz eq v2, :zero
     rtcall pLogValue (v2)
     goto :done
   :zero
     const v2, #0
   :done
     return v2
   .end
   v} *)

open Dex_ir

exception Parse_error of { line : int; message : string }

let parse_errorf ~line fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* ---- Scanner ---------------------------------------------------------

   Tokens are read straight from the source string at [pos], with no
   token list; only the strings the IR keeps (names, class prefixes,
   string constants) are copied out. A label is a source position. *)

(* A growable array; an int pair is stored flat. *)
type 'a vec = { mutable a : 'a array; mutable n : int }

let push v x =
  if v.n = Array.length v.a then v.a <- Array.append v.a (Array.make (v.n + 16) x);
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type memo = {
  find : string -> (meth * int) option;
  add : string -> meth * int -> unit;
}

type state = {
  src : string;
  len : int;
  mutable pos : int;  (* next unread byte *)
  mutable line : int;  (* of [pos]; newlines inside strings do not count *)
  mutable last_line : int;  (* of the last token consumed *)
  insns : insn vec;  (* the current method's body *)
  labels : (int, int * int) Hashtbl.t;  (* its labels, see below *)
  refs : int vec;  (* its label references: (name position, line) *)
}

let ident_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '$' | '/' | '<' | '>' -> '\001'
      | _ -> '\000')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) <> '\000'
let is_digit c = c >= '0' && c <= '9'

let is_int_char = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | 'x' -> true | _ -> false

let rec scan_while pred s i =
  if i < s.len && pred s.src.[i] then scan_while pred s (i + 1) else i

let rec word_end s i =
  if i < s.len && is_ident_char s.src.[i] then word_end s (i + 1) else i
let rec digits_end s i =
  if i < s.len && is_digit s.src.[i] then digits_end s (i + 1) else i

let take s j = s.last_line <- s.line; s.pos <- j
let sub s i j = String.sub s.src i (j - i)

(* Skip blanks, newlines and comments (';' or '//' to end of line). *)
let rec skip s =
  if s.pos < s.len then
    match s.src.[s.pos] with
    | '\n' -> s.line <- s.line + 1; s.pos <- s.pos + 1; skip s
    | ' ' | '\t' | '\r' -> s.pos <- s.pos + 1; skip s
    | (';' | '/') as c
      when c = ';' || (s.pos + 1 < s.len && s.src.[s.pos + 1] = '/') ->
      s.pos <- scan_while (fun c -> c <> '\n') s s.pos;
      skip s
    | _ -> ()

let at_end s = skip s; s.pos >= s.len

(* The next token's first byte. *)
let start s =
  if at_end s then parse_errorf ~line:s.last_line "unexpected end of input";
  s.src.[s.pos]

let rec same_from s i lit k =
  k = String.length lit || (s.src.[i + k] = lit.[k] && same_from s i lit (k + 1))

let span_is s i j lit = j - i = String.length lit && same_from s i lit 0

(* The entry spelled [i, j) in a table of options built once, so a
   lookup allocates nothing. *)
let rec lookup s i j = function
  | [] -> None
  | (name, v) :: rest -> if span_is s i j name then v else lookup s i j rest

let rec decimal s i j acc =
  if i = j then acc else decimal s (i + 1) j ((acc * 10) + Char.code s.src.[i] - 48)

(* The value of [i, j): short decimals directly, anything else (hex, out
   of range, empty) through [int_of_string]. *)
let number s i j =
  if j > i && j - i <= 18 && digits_end s i = j then decimal s i j 0
  else int_of_string (sub s i j)

(* Whether the word [i, j) is a register: "v" and digits. *)
let is_reg s i j = j - i >= 2 && s.src.[i] = 'v' && digits_end s (i + 1) = j

(* Consume the register at [pos] and return its number, or return -1 if
   another token is there. *)
let reg s =
  let i = s.pos + 1 in
  let j = if s.src.[s.pos] = 'v' then digits_end s i else i in
  if j = i || (j < s.len && is_ident_char s.src.[j]) then -1
  else if j - i <= 18 then (take s j; decimal s i j 0)
  else
    match number s i j with
    | r -> take s j; r
    | exception Failure _ ->
      parse_errorf ~line:s.line "register %s out of range" (sub s s.pos j)

(* '#', an optional '-', then digits; [pos] is at the '#'. *)
let read_int s =
  let neg = s.pos + 1 < s.len && s.src.[s.pos + 1] = '-' in
  let i = s.pos + if neg then 2 else 1 in
  let j = digits_end s i in
  let j = if j < s.len && is_int_char s.src.[j] then scan_while is_int_char s j else j in
  match number s i j with
  | v -> take s j; if neg then -v else v
  | exception Failure _ ->
    parse_errorf ~line:s.line "bad integer literal #%s" (sub s i j)

(* The end of the name after the ':' or '.' at [pos]. *)
let name_end s what =
  let j = word_end s (s.pos + 1) in
  if j = s.pos + 1 then parse_errorf ~line:s.line "%s" what;
  j

let rec string_body s b i =
  if i >= s.len then parse_errorf ~line:s.line "unterminated string";
  match s.src.[i] with
  | '"' -> i + 1
  | '\\' when i + 1 < s.len ->
    Buffer.add_char b
      (match s.src.[i + 1] with
       | 'n' -> '\n' | 't' -> '\t' | ('\\' | '"') as e -> e
       | e -> parse_errorf ~line:s.line "bad escape \\%c" e);
    string_body s b (i + 2)
  | c -> Buffer.add_char b c; string_body s b (i + 1)

(* A string literal; [pos] is at the opening quote. *)
let read_string s =
  let b = Buffer.create 16 in
  take s (string_body s b (s.pos + 1));
  Buffer.contents b

(* The token at [pos] as messages name it. It is lexed in full, so a
   lexical fault in it is reported as such. *)
let describe s =
  match s.src.[s.pos] with
  | ('(' | ')' | ',') as c -> String.make 1 c
  | '-' when s.pos + 1 < s.len && s.src.[s.pos + 1] = '>' -> "->"
  | '.' -> "." ^ sub s (s.pos + 1) (name_end s "stray '.'")
  | ':' -> ":" ^ sub s (s.pos + 1) (name_end s "empty label after ':'")
  | '#' -> "#" ^ string_of_int (read_int s)
  | '"' -> ignore (read_string s); "<string>"
  | c when is_ident_char c ->
    let j = word_end s s.pos in
    if is_reg s s.pos j then "v" ^ string_of_int (reg s) else sub s s.pos j
  | c -> parse_errorf ~line:s.line "unexpected character %C" c

let unexpected s what =
  let line = s.line in
  parse_errorf ~line "expected %s, got %s" what (describe s)

(* ---- Parser ---------------------------------------------------------- *)

(* Consume the punctuation [c] if it is next. *)
let accept s c = (not (at_end s)) && s.src.[s.pos] = c && (take s (s.pos + 1); true)

(* Consume the word (or directive) [w] if it is next. *)
let accept_word s w =
  (not (at_end s)) && s.src.[s.pos] = w.[0] && span_is s s.pos (word_end s s.pos) w
  && (take s (word_end s s.pos); true)

let expect s c =
  if not (accept s c) then (ignore (start s); unexpected s (String.make 1 c))
let keyword s w = if not (accept_word s w) then (ignore (start s); unexpected s w)

let expect_reg s =
  ignore (start s);
  match reg s with -1 -> unexpected s "register" | r -> r

let reg_comma s = let r = expect_reg s in expect s ','; r
let expect_int s = if start s = '#' then read_int s else unexpected s "integer"

let expect_string s = if start s = '"' then read_string s else unexpected s "string"

(* Consume an identifier (not a register, not a directive) and return
   where it starts; it ends at [pos]. *)
let read_ident s =
  let j = if start s = '.' then s.pos else word_end s s.pos in
  if j = s.pos || is_reg s s.pos j then unexpected s "identifier";
  let i = s.pos in
  take s j; i

let expect_ident s = let i = read_ident s in sub s i s.pos

(* An identifier looked up in [table]; a miss is reported at [line]. *)
let expect_named s line table what =
  let i = read_ident s in
  match lookup s i s.pos table with
  | Some v -> v
  | None -> parse_errorf ~line "unknown %s %S" what (sub s i s.pos)

let rec last_dot s i k = if k < i || s.src.[k] = '.' then k else last_dot s i (k - 1)

(* "com.demo.Bar.helper": class "com.demo.Bar", method "helper". *)
let expect_method_ref s line =
  let i = read_ident s in
  let k = last_dot s i (s.pos - 1) in
  if k < i then
    parse_errorf ~line "method reference %S needs a class prefix" (sub s i s.pos);
  { class_name = sub s i k; method_name = sub s (k + 1) s.pos }

(* A label reference, numbered in [refs] with the instruction's line: a
   branch holds that number until its method's labels are resolved. *)
let expect_label s line =
  if start s <> ':' then unexpected s "label";
  let j = name_end s "empty label after ':'" in
  push s.refs (s.pos + 1); push s.refs line; take s j;
  (s.refs.n / 2) - 1

(* The rest of "(x, x, ...)" after its '('. *)
let rec list_rest s read line acc =
  let acc = read s line :: acc in
  if accept s ',' then list_rest s read line acc else (expect s ')'; List.rev acc)

let args s =
  expect s '(';
  if accept s ')' then [] else list_rest s (fun s _ -> expect_reg s) 0 []

let result s =
  let arrow = (not (at_end s)) && s.pos + 1 < s.len && s.src.[s.pos] = '-' in
  if arrow && s.src.[s.pos + 1] = '>' then (take s (s.pos + 2); Some (expect_reg s))
  else None
let table name l = List.map (fun x -> (name x, Some x)) l
let cmps = table cmp_name [ Eq; Ne; Lt; Le; Gt; Ge ]
let runtime_fns = table runtime_fn_name all_runtime_fns

(* Operand shapes "vA, vB", "vA, vB, vC" and "vA, vB, #n". *)
let rr k s _ = let a = reg_comma s in k a (expect_reg s)
let rrr k s _ = let a = reg_comma s in let b = reg_comma s in k a b (expect_reg s)
let rri k s _ = let a = reg_comma s in let b = reg_comma s in k a b (expect_int s)

(* Each mnemonic's operand parser, given the mnemonic's line; the most
   frequent first. They are built once: parsing an instruction makes no
   closure. *)
let mnemonics =
  List.map (fun op ->
      ( binop_name op,
        fun s _ ->
          let d = reg_comma s in let a = reg_comma s in
          if start s = '#' then Binop_lit (op, d, a, read_int s)
          else
            match reg s with -1 -> unexpected s "register or literal" | b -> Binop (op, d, a, b) ))
    [ Add; Xor; Sub; Mul; And; Or; Div; Rem ]
  @ [ ("const", fun s _ -> let d = reg_comma s in Const (d, expect_int s));
      ("iput", rri (fun v o off -> Iput (v, o, off)));
      ("iget", rri (fun d o off -> Iget (d, o, off)));
      ("invoke", fun s line ->
          let callee = expect_method_ref s line in
          let args = args s in
          Invoke (callee, args, result s));
      ("aput", rrr (fun v a i -> Aput (v, a, i)));
      ("return", fun s _ ->
          let r = if at_end s then -1 else reg s in
          Return (if r >= 0 then Some r else None));
      ("goto", fun s line -> Goto (expect_label s line));
      ("rtcall", fun s line ->
          let fn = expect_named s line runtime_fns "runtime function" in
          let args = args s in
          Invoke_runtime (fn, args, result s));
      ("string", fun s _ -> let d = reg_comma s in Const_string (d, expect_string s));
      ("new", fun s _ ->
          let cls = expect_ident s in expect s ','; New_instance (cls, expect_reg s));
      ("if", fun s line ->
          let c = expect_named s line cmps "comparison" in
          let a = reg_comma s in let b = reg_comma s in
          If (c, a, b, expect_label s line));
      ("aget", rrr (fun d a i -> Aget (d, a, i)));
      ("switch", fun s line ->
          let v = expect_reg s in expect s '(';
          Switch (v, list_rest s expect_label line []));
      ("move", rr (fun d a -> Move (d, a)));
      ("arraylen", rr (fun d a -> Array_len (d, a)));
      ("ifz", fun s line ->
          let c = expect_named s line cmps "comparison" in
          let a = reg_comma s in
          Ifz (c, a, expect_label s line)) ]
  |> List.map (fun (m, operands) -> (m, Some operands))

(* ---- Labels ----------------------------------------------------------

   A method's label definitions, (name position, instruction index), are
   kept by a hash of the name. *)

let rec same_name s i k =
  let ei = i >= s.len || not (is_ident_char s.src.[i])
  and ek = k >= s.len || not (is_ident_char s.src.[k]) in
  if ei || ek then ei && ek else s.src.[i] = s.src.[k] && same_name s (i + 1) (k + 1)

let rec name_hash s i h =
  if i < s.len && is_ident_char s.src.[i] then
    name_hash s (i + 1) ((h * 31) + Char.code s.src.[i])
  else h

let find_label s i =
  let defs = Hashtbl.find_all s.labels (name_hash s i 0) in
  List.find_opt (fun (k, _) -> same_name s k i) defs

let define_label s =
  let j = name_end s "empty label after ':'" and i = s.pos + 1 in
  take s j;
  if find_label s i <> None then
    parse_errorf ~line:s.last_line "duplicate label :%s" (sub s i j);
  Hashtbl.add s.labels (name_hash s i 0) (i, s.insns.n)

(* Reference [r]'s instruction index. *)
let target s r =
  let i = s.refs.a.(2 * r) in
  match find_label s i with
  | Some (_, index) -> index
  | None ->
    let line = s.refs.a.((2 * r) + 1) in
    parse_errorf ~line "undefined label :%s" (sub s i (word_end s i))

let[@tail_mod_cons] rec targets s = function
  | [] -> []
  | r :: rs -> let t = target s r in t :: targets s rs

(* Patch the branches' reference numbers into instruction indices, in
   instruction order, and forget the method's labels. *)
let resolve_labels s insns =
  if s.refs.n > 0 then
    Array.iteri
      (fun k insn ->
        match insn with
        | If (c, a, b, r) -> insns.(k) <- If (c, a, b, target s r)
        | Ifz (c, a, r) -> insns.(k) <- Ifz (c, a, target s r)
        | Goto r -> insns.(k) <- Goto (target s r)
        | Switch (v, rs) -> insns.(k) <- Switch (v, targets s rs)
        | _ -> ())
      insns;
  Hashtbl.reset s.labels;
  s.refs.n <- 0

(* ---- Structure ------------------------------------------------------- *)

let parse_method s name =
  keyword s "params"; let num_params = expect_int s in
  keyword s "regs"; let num_vregs = expect_int s in
  let rec attrs native entry =
    if accept_word s "native" then attrs true entry
    else if accept_word s "entry" then attrs native true
    else (native, entry)
  in
  let is_native, is_entry = attrs false false in
  s.insns.n <- 0;
  while not (accept_word s ".end") do
    if at_end s then parse_errorf ~line:s.last_line ".method without .end";
    if s.src.[s.pos] = ':' then define_label s
    else begin
      let i = s.pos and j = word_end s s.pos in
      if s.src.[i] = '.' || j = i || is_reg s i j then
        unexpected s "instruction, label or .end";
      take s j;
      match lookup s i j mnemonics with
      | Some operands -> push s.insns (operands s s.last_line)
      | None -> parse_errorf ~line:s.last_line "unknown mnemonic %S" (sub s i j)
    end
  done;
  let insns = Array.sub s.insns.a 0 s.insns.n in
  resolve_labels s insns;
  { name; num_params; num_vregs; is_native; is_entry; insns }

(* ---- Body memo -------------------------------------------------------

   A body is the text from just after a ".method" to the end of the
   first ".end" after it that the next byte (or the end of the text)
   ends as a word. The scan only proposes that span: a body is stored
   only when its parse consumed exactly the span, and a parse reads
   nothing past its ".end" but the next byte, which the scan also
   requires to end the word. So the span's bytes and class alone decide
   the method and the newlines the parse counted, whatever surrounds
   them, and a hit can stand in for the parse. A ".end" inside a
   string, a comment or a dotted name ("invoke a.B.end ...") only costs
   a miss. The scan asks nothing of the byte
   before a ".end": every ".end" the parser accepts (even one glued to
   a literal, as in "#5.end") is followed by a non-identifier byte, so
   the scan never runs past the parse's own ".end" and costs no more
   than the parse. *)

(* Horspool's search for ".end" from [i]: the byte under the pattern's
   last position says how far the pattern may move. *)
let rec body_end s i =
  if i + 3 >= s.len then -1
  else
    match s.src.[i + 3] with
    | 'd' ->
      if
        s.src.[i] = '.' && s.src.[i + 1] = 'e' && s.src.[i + 2] = 'n'
        && (i + 4 = s.len || not (is_ident_char s.src.[i + 4]))
      then i + 4
      else body_end s (i + 4)
    | 'n' -> body_end s (i + 1)
    | 'e' -> body_end s (i + 2)
    | '.' -> body_end s (i + 3)
    | _ -> body_end s (i + 4)

(* The method after a ".method" just consumed. *)
let named_method s cls_name =
  let method_name = expect_ident s in
  parse_method s { class_name = cls_name; method_name }

(* The same, from [memo] when it holds the body; [scanned] counts the
   bodies looked up. *)
let method_body memo scanned s cls_name =
  let start = s.pos and line0 = s.line in
  match body_end s start with
  | -1 -> named_method s cls_name
  | stop -> (
    incr scanned;
    let key =
      Calibro_chash.Chash.substring s.src start (stop - start) ^ cls_name
    in
    match memo.find key with
    | Some (m, lines) ->
      s.pos <- stop;
      s.line <- line0 + lines;
      s.last_line <- s.line;
      m
    | None ->
      let m = named_method s cls_name in
      if s.pos = stop then memo.add key (m, s.line - line0);
      m)

let parse_apk s method_of =
  keyword s ".apk";
  let apk_name = expect_ident s in
  let dexes = ref [] in
  while not (at_end s) do
    keyword s ".dex"; let dex_name = expect_ident s in
    let classes = ref [] in
    while accept_word s ".class" do
      let cls_name = expect_ident s in
      let methods = ref [] in
      while accept_word s ".method" do
        methods := method_of s cls_name :: !methods
      done;
      classes := { cls_name; cls_methods = List.rev !methods } :: !classes
    done;
    dexes := { dex_name; classes = List.rev !classes } :: !dexes
  done;
  { apk_name; dexes = List.rev !dexes }

let run source method_of =
  let s =
    { src = source; len = String.length source; pos = 0; line = 1;
      last_line = 1; insns = { a = [||]; n = 0 }; labels = Hashtbl.create 16;
      refs = { a = [||]; n = 0 } }
  in
  match parse_apk s method_of with
  | apk -> Ok apk
  | exception Parse_error { line; message } ->
    Error (Printf.sprintf "line %d: %s" line message)

let parse ?memo source =
  match memo with
  | None -> run source named_method
  | Some memo ->
    let scanned = ref 0 in
    let result = run source (method_body memo scanned) in
    Calibro_obs.Obs.Counter.add "dex.bodies_scanned" !scanned;
    result

(* ---- Printer ---------------------------------------------------------

   Straight into one buffer: no per-line format or concatenation. *)

let add = Buffer.add_string
let add_char = Buffer.add_char

let rec add_int b n =
  if n < 0 && n <> min_int then (add_char b '-'; add_int b (-n))
  else if n < 0 then add b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* [prefix] then [n]: "const v3", ", #5", ", :L6". *)
let add_num b prefix n = add b prefix; add_int b n
let add_reg b r = add_num b ", v" r

(* [sep], [prefix] and a number for each element; then ", " separates. *)
let rec add_list b prefix sep = function
  | [] -> ()
  | x :: xs -> add b sep; add_num b prefix x; add_list b prefix ", " xs

let add_call b name args res =
  add b name; add b " ("; add_list b "v" "" args; add_char b ')';
  match res with Some r -> add_num b " -> v" r | None -> ()

let add_escaped b v =
  for k = 0 to String.length v - 1 do
    match v.[k] with
    | '\n' -> add b "\\n" | '\t' -> add b "\\t" | '\\' -> add b "\\\\"
    | '"' -> add b "\\\"" | c -> add_char b c
  done

let print_insn b insn =
  (match insn with
   | Const (d, v) -> add_num b "const v" d; add_num b ", #" v
   | Move (d, a) -> add_num b "move v" d; add_reg b a
   | Binop (op, d, a, c) ->
     add b (binop_name op); add_num b " v" d; add_reg b a; add_reg b c
   | Binop_lit (op, d, a, v) ->
     add b (binop_name op); add_num b " v" d; add_reg b a; add_num b ", #" v
   | Invoke (m, args, res) ->
     add b "invoke "; add b m.class_name; add_char b '.';
     add_call b m.method_name args res
   | Invoke_runtime (fn, args, res) ->
     add b "rtcall "; add_call b (runtime_fn_name fn) args res
   | New_instance (cls, d) -> add b "new "; add b cls; add_reg b d
   | Iget (d, o, off) -> add_num b "iget v" d; add_reg b o; add_num b ", #" off
   | Iput (v, o, off) -> add_num b "iput v" v; add_reg b o; add_num b ", #" off
   | Aget (d, a, i) -> add_num b "aget v" d; add_reg b a; add_reg b i
   | Aput (v, a, i) -> add_num b "aput v" v; add_reg b a; add_reg b i
   | Array_len (d, a) -> add_num b "arraylen v" d; add_reg b a
   | If (c, x, y, l) ->
     add b "if "; add b (cmp_name c); add_num b " v" x; add_reg b y;
     add_num b ", :L" l
   | Ifz (c, x, l) ->
     add b "ifz "; add b (cmp_name c); add_num b " v" x; add_num b ", :L" l
   | Goto l -> add_num b "goto :L" l
   | Switch (v, ls) ->
     add_num b "switch v" v; add b " ("; add_list b ":L" "" ls; add_char b ')'
   | Const_string (d, v) ->
     add_num b "string v" d; add b ", \""; add_escaped b v; add_char b '"'
   | Return None -> add b "return"
   | Return (Some r) -> add_num b "return v" r);
  add_char b '\n'

let print_method b (m : meth) =
  add b ".method "; add b m.name.method_name;
  add_num b " params #" m.num_params; add_num b " regs #" m.num_vregs;
  if m.is_native then add b " native";
  if m.is_entry then add b " entry";
  add_char b '\n';
  (* Label every in-range branch target (the checker rejects the rest). *)
  let n = Array.length m.insns in
  let is_target = Array.make n false in
  let mark l = if l >= 0 && l < n then is_target.(l) <- true in
  Array.iter
    (function
      | If (_, _, _, l) | Ifz (_, _, l) | Goto l -> mark l
      | Switch (_, ls) -> List.iter mark ls
      | _ -> ())
    m.insns;
  Array.iteri
    (fun i insn ->
      if is_target.(i) then (add_num b "  :L" i; add_char b '\n');
      add b "    "; print_insn b insn)
    m.insns;
  add b ".end\n"

let to_string (apk : apk) =
  let b = Buffer.create 4096 in
  let line directive name = add b directive; add b name; add_char b '\n' in
  line ".apk " apk.apk_name;
  List.iter
    (fun dex ->
      line ".dex " dex.dex_name;
      List.iter
        (fun cls ->
          line ".class " cls.cls_name;
          List.iter (print_method b) cls.cls_methods)
        dex.classes)
    apk.dexes;
  Buffer.contents b
