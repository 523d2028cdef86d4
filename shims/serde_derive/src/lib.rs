//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the shim `serde` crate's `to_value`/`from_value` traits. The parser is
//! hand-rolled over `proc_macro::TokenStream` (no `syn`/`quote` available
//! offline) and supports exactly the shapes this workspace derives:
//! non-generic structs (unit, tuple, named) and enums whose variants are
//! unit (with optional discriminants), tuple, or struct-like. Anything
//! else — generics, `#[serde(...)]` attributes other than a named field's
//! `#[serde(default)]` — is rejected with a `compile_error!` so a silent
//! wrong encoding can never ship.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or of one enum variant.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// One named field; `default` marks `#[serde(default)]`: a missing key
/// deserializes as `Default::default()`.
struct Field {
    name: String,
    default: bool,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive shim produced invalid code: {e}\");")
            .parse()
            .expect("compile_error! parses")
    })
}

// ---------------------------------------------------------------------------
// Parsing

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let tok = self.tokens.get(self.pos).cloned();
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Skips `#[...]` attributes (including doc comments, which arrive in
    /// that form) and reports whether `#[serde(default)]` was among them.
    /// That one is honored only where `allow_default` says (named fields);
    /// every other `#[serde(...)]` is rejected, since the shim cannot
    /// honor it.
    fn skip_attributes(&mut self, allow_default: bool) -> Result<bool, String> {
        let mut default = false;
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    let body: String = g
                        .stream()
                        .to_string()
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    if allow_default && body == "serde(default)" {
                        default = true;
                    } else if body.starts_with("serde") {
                        return Err(format!("the serde shim does not support #[{body}] here"));
                    }
                }
                _ => return Err("malformed attribute".into()),
            }
        }
        Ok(default)
    }

    /// Skips `pub`, `pub(crate)`, `pub(in ...)`.
    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(id)) => Ok(id.to_string()),
            other => Err(format!("expected {what}, found {other:?}")),
        }
    }

    /// Consumes tokens until a `,` at zero angle-bracket depth (for types
    /// and discriminants, where generic arguments may contain commas).
    fn skip_until_comma(&mut self) {
        let mut angle_depth: i32 = 0;
        while let Some(tok) = self.peek() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
                _ => {}
            }
            self.next();
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut cur = Cursor::new(input);
    cur.skip_attributes(false)?;
    cur.skip_visibility();
    let keyword = cur.expect_ident("`struct` or `enum`")?;
    let name = cur.expect_ident("type name")?;
    if let Some(TokenTree::Punct(p)) = cur.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "the serde shim cannot derive for generic type `{name}`"
            ));
        }
    }
    match keyword.as_str() {
        "struct" => {
            let shape = match cur.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                other => return Err(format!("unsupported struct body: {other:?}")),
            };
            Ok(Item::Struct { name, shape })
        }
        "enum" => {
            let body = match cur.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, found {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let default = cur.skip_attributes(true)?;
        if cur.at_end() {
            break;
        }
        cur.skip_visibility();
        let field = cur.expect_ident("field name")?;
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected `:` after field `{field}`, found {other:?}"
                ))
            }
        }
        cur.skip_until_comma();
        cur.next(); // the comma itself, if present
        fields.push(Field {
            name: field,
            default,
        });
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cur = Cursor::new(stream);
    let mut count = 0;
    while !cur.at_end() {
        count += 1;
        cur.skip_until_comma();
        cur.next();
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while !cur.at_end() {
        cur.skip_attributes(false)?;
        if cur.at_end() {
            break;
        }
        let name = cur.expect_ident("variant name")?;
        let shape = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                cur.next();
                Shape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let count = count_tuple_fields(g.stream());
                cur.next();
                Shape::Tuple(count)
            }
            _ => Shape::Unit,
        };
        // Optional discriminant (`= 0b0001`), then the separating comma.
        cur.skip_until_comma();
        cur.next();
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => "::serde::Value::Null".to_string(),
                Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
                }
                Shape::Named(fields) => object_literal(fields, |f| format!("&self.{f}")),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vname} => ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                        ),
                        Shape::Tuple(1) => format!(
                            "{name}::{vname}(__f0) => ::serde::variant(\"{vname}\", ::serde::Serialize::to_value(__f0)),"
                        ),
                        Shape::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let elems: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::variant(\"{vname}\", ::serde::Value::Array(::std::vec![{}])),",
                                binders.join(", "),
                                elems.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let payload = object_literal(fields, |f| f.to_string());
                            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => ::serde::variant(\"{vname}\", {payload}),",
                                names.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ match self {{ {} }} }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

fn object_literal(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value({1}))",
                f.name,
                access(&f.name)
            )
        })
        .collect();
    format!(
        "::serde::Value::Object(::std::vec![{}])",
        entries.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => (name, de_struct_body(name, shape)),
        Item::Enum { name, variants } => (name, de_enum_body(name, variants)),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn de_struct_body(name: &str, shape: &Shape) -> String {
    match shape {
        Shape::Unit => format!("::std::result::Result::Ok({name})"),
        Shape::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Shape::Tuple(n) => de_tuple_payload(name, *n, "__v", name),
        Shape::Named(fields) => de_named_payload(name, fields, "__v", name),
    }
}

/// `ctor` is the path to construct (e.g. `Foo` or `Foo::Bar`); `src` is the
/// expression holding the `&Value` payload; `context` names the type for
/// error messages.
fn de_tuple_payload(ctor: &str, n: usize, src: &str, context: &str) -> String {
    let elems: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::from_value(&__elems[{i}])?"))
        .collect();
    format!(
        "{{\n\
             let __elems = {src}.as_array().ok_or_else(|| ::serde::Error::expected(\"array\", \"{context}\"))?;\n\
             if __elems.len() != {n} {{\n\
                 return ::std::result::Result::Err(::serde::Error::custom(\n\
                     ::std::format!(\"expected {n} elements for {context}, got {{}}\", __elems.len())));\n\
             }}\n\
             ::std::result::Result::Ok({ctor}({}))\n\
         }}",
        elems.join(", ")
    )
}

fn de_named_payload(ctor: &str, fields: &[Field], src: &str, context: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let getter = if f.default {
                "field_or_default"
            } else {
                "field"
            };
            format!(
                "{0}: ::serde::{getter}(__obj, \"{0}\", \"{context}\")?",
                f.name
            )
        })
        .collect();
    format!(
        "{{\n\
             let __obj = {src}.as_object().ok_or_else(|| ::serde::Error::expected(\"object\", \"{context}\"))?;\n\
             ::std::result::Result::Ok({ctor} {{ {} }})\n\
         }}",
        inits.join(", ")
    )
}

fn de_enum_body(name: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),", v.name))
        .collect();
    let data_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let vname = &v.name;
            let ctor = format!("{name}::{vname}");
            let context = format!("{name}::{vname}");
            match &v.shape {
                Shape::Unit => None,
                Shape::Tuple(1) => Some(format!(
                    "\"{vname}\" => ::std::result::Result::Ok({ctor}(::serde::Deserialize::from_value(__payload)?)),"
                )),
                Shape::Tuple(n) => {
                    Some(format!("\"{vname}\" => {},", de_tuple_payload(&ctor, *n, "__payload", &context)))
                }
                Shape::Named(fields) => {
                    Some(format!("\"{vname}\" => {},", de_named_payload(&ctor, fields, "__payload", &context)))
                }
            }
        })
        .collect();
    format!(
        "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
             match __s {{\n\
                 {unit}\n\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\n\
                     ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
             }}\n\
         }} else if let ::std::option::Option::Some((__tag, __payload)) = __v.as_variant() {{\n\
             let _ = __payload;\n\
             match __tag {{\n\
                 {data}\n\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\n\
                     ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
             }}\n\
         }} else {{\n\
             ::std::result::Result::Err(::serde::Error::expected(\"string or single-key object\", \"{name}\"))\n\
         }}",
        unit = unit_arms.join("\n"),
        data = data_arms.join("\n"),
    )
}
