//! A minimal XML parser and writer.
//!
//! The WPDL is XML (paper §7); the engine also *writes* XML, because engine
//! checkpointing persists the annotated parse tree to a file and reloads it
//! on restart.  The subset implemented here is exactly what a process
//! definition language needs — elements, attributes, character data, comments,
//! CDATA, the five predefined entities, and an optional XML declaration /
//! DOCTYPE which are skipped.  Namespaces and DTD validation are out of scope
//! (the original used a DTD; our schema checks live in `validate`).
//!
//! Errors carry line/column positions: a workflow author's first contact
//! with the system is a typo in a `.xml` file, and "`unexpected '<' at
//! 12:7`" is the difference between a usable tool and a riddle.

use std::fmt;

/// Position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for XmlError {}

/// An attribute `name='value'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name.
    pub name: String,
    /// Decoded attribute value.
    pub value: String,
}

/// A node in the document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlNode {
    /// An element with attributes and children.
    Element(Element),
    /// Character data (entity-decoded, whitespace preserved).
    Text(String),
}

/// An XML element.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<Attr>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
    /// Position of the opening `<` in the source (zeroed for synthesised
    /// elements).
    pub pos: Pos,
}

impl Element {
    /// Creates a synthesised element (no source position).
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            pos: Pos { line: 0, col: 0 },
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push(Attr {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Builder: adds a child element.
    pub fn child(mut self, el: Element) -> Self {
        self.children.push(XmlNode::Element(el));
        self
    }

    /// Builder: adds a text child.
    pub fn text(mut self, s: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(s.into()));
        self
    }

    /// First attribute value with the given name.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// First child element with the given tag name.
    pub fn first_child<'a>(&'a self, name: &str) -> Option<&'a Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements (ignoring text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// Concatenated text content of direct text children, trimmed.
    pub fn text_content(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let XmlNode::Text(t) = n {
                s.push_str(t);
            }
        }
        s.trim().to_string()
    }
}

struct Parser<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            message: msg.into(),
            pos: self.pos(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.i..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skips `<!-- ... -->`; assumes positioned at `<!--`.
    fn skip_comment(&mut self) -> Result<(), XmlError> {
        let start = self.pos();
        self.bump_n(4);
        while self.i < self.src.len() {
            if self.starts_with("-->") {
                self.bump_n(3);
                return Ok(());
            }
            self.bump();
        }
        Err(XmlError {
            message: "unterminated comment".into(),
            pos: start,
        })
    }

    /// Skips `<? ... ?>` and `<!DOCTYPE ...>`.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                let start = self.pos();
                while self.i < self.src.len() && !self.starts_with("?>") {
                    self.bump();
                }
                if !self.starts_with("?>") {
                    return Err(XmlError {
                        message: "unterminated processing instruction".into(),
                        pos: start,
                    });
                }
                self.bump_n(2);
            } else if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (internal subsets unsupported).
                while let Some(c) = self.peek() {
                    self.bump();
                    if c == b'>' {
                        break;
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn is_name_start(c: u8) -> bool {
        c.is_ascii_alphabetic() || c == b'_' || c == b':'
    }

    fn is_name_char(c: u8) -> bool {
        Self::is_name_start(c) || c.is_ascii_digit() || c == b'-' || c == b'.'
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        match self.peek() {
            Some(c) if Self::is_name_start(c) => {}
            _ => return self.err("expected a name"),
        }
        let start = self.i;
        while matches!(self.peek(), Some(c) if Self::is_name_char(c)) {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.src[start..self.i])
            .expect("name chars are ASCII")
            .to_string())
    }

    fn decode_entity(&mut self) -> Result<char, XmlError> {
        // Positioned at '&'.
        let start = self.pos();
        self.bump();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == b';' {
                self.bump();
                return match name.as_str() {
                    "amp" => Ok('&'),
                    "lt" => Ok('<'),
                    "gt" => Ok('>'),
                    "quot" => Ok('"'),
                    "apos" => Ok('\''),
                    _ if name.starts_with("#x") || name.starts_with("#X") => {
                        u32::from_str_radix(&name[2..], 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or(XmlError {
                                message: format!("bad character reference &{name};"),
                                pos: start,
                            })
                    }
                    _ if name.starts_with('#') => name[1..]
                        .parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or(XmlError {
                            message: format!("bad character reference &{name};"),
                            pos: start,
                        }),
                    _ => Err(XmlError {
                        message: format!("unknown entity &{name};"),
                        pos: start,
                    }),
                };
            }
            if name.len() > 10 {
                break;
            }
            name.push(self.bump().expect("peeked") as char);
        }
        Err(XmlError {
            message: "unterminated entity reference".into(),
            pos: start,
        })
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return self.err("expected quoted attribute value"),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'&') => value.push(self.decode_entity()?),
                Some(b'<') => return self.err("'<' not allowed in attribute value"),
                Some(_) => {
                    // Attribute values may contain multi-byte UTF-8; copy raw bytes.
                    let b = self.bump().expect("peeked");
                    if b < 0x80 {
                        value.push(b as char);
                    } else {
                        value.push(self.take_utf8_tail(b)?);
                    }
                }
            }
        }
    }

    /// Reassembles a multi-byte UTF-8 scalar whose first byte was consumed.
    fn take_utf8_tail(&mut self, first: u8) -> Result<char, XmlError> {
        let extra = match first {
            0xC0..=0xDF => 1,
            0xE0..=0xEF => 2,
            0xF0..=0xF7 => 3,
            _ => return self.err("invalid UTF-8 byte"),
        };
        let mut buf = vec![first];
        for _ in 0..extra {
            match self.bump() {
                Some(b) => buf.push(b),
                None => return self.err("truncated UTF-8 sequence"),
            }
        }
        match std::str::from_utf8(&buf) {
            Ok(s) => Ok(s.chars().next().expect("non-empty")),
            Err(_) => self.err("invalid UTF-8 sequence"),
        }
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        let pos = self.pos();
        if self.peek() != Some(b'<') {
            return self.err("expected '<'");
        }
        self.bump();
        let name = self.parse_name()?;
        let mut el = Element {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
            pos,
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    if self.peek() == Some(b'>') {
                        self.bump();
                        return Ok(el); // self-closing
                    }
                    return self.err("expected '>' after '/'");
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(c) if Parser::is_name_start(c) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return self.err(format!("expected '=' after attribute '{aname}'"));
                    }
                    self.bump();
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if el.attrs.iter().any(|a| a.name == aname) {
                        return self.err(format!("duplicate attribute '{aname}'"));
                    }
                    el.attrs.push(Attr { name: aname, value });
                }
                _ => return self.err("malformed start tag"),
            }
        }
        // Children until matching end tag.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return self.err(format!("unexpected end of input inside <{}>", el.name)),
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        self.bump_n(9);
                        let start = self.pos();
                        loop {
                            if self.starts_with("]]>") {
                                self.bump_n(3);
                                break;
                            }
                            match self.bump() {
                                Some(b) if b < 0x80 => text.push(b as char),
                                Some(b) => text.push(self.take_utf8_tail(b)?),
                                None => {
                                    return Err(XmlError {
                                        message: "unterminated CDATA section".into(),
                                        pos: start,
                                    })
                                }
                            }
                        }
                    } else if self.starts_with("</") {
                        if !text.is_empty() {
                            el.children.push(XmlNode::Text(std::mem::take(&mut text)));
                        }
                        self.bump_n(2);
                        let end_name = self.parse_name()?;
                        if end_name != el.name {
                            return self.err(format!(
                                "mismatched end tag: expected </{}>, found </{}>",
                                el.name, end_name
                            ));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return self.err("expected '>' in end tag");
                        }
                        self.bump();
                        return Ok(el);
                    } else {
                        if !text.is_empty() {
                            el.children.push(XmlNode::Text(std::mem::take(&mut text)));
                        }
                        let child = self.parse_element()?;
                        el.children.push(XmlNode::Element(child));
                    }
                }
                Some(b'&') => text.push(self.decode_entity()?),
                Some(b) => {
                    self.bump();
                    if b < 0x80 {
                        text.push(b as char);
                    } else {
                        text.push(self.take_utf8_tail(b)?);
                    }
                }
            }
        }
    }
}

/// Parses a complete document, returning its root element.
pub fn parse(src: &str) -> Result<Element, XmlError> {
    let mut p = Parser::new(src);
    p.skip_misc()?;
    if p.peek().is_none() {
        return p.err("empty document");
    }
    let root = p.parse_element()?;
    p.skip_misc()?;
    p.skip_ws();
    if p.peek().is_some() {
        return p.err("trailing content after root element");
    }
    Ok(root)
}

fn escape_into(out: &mut String, s: &str, attr: bool) {
    // Copy unescaped runs whole.  Every escaped character is ASCII, so the
    // byte offsets below always fall on `char` boundaries.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'\'' if attr => "&apos;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Appends ` name='value'` with the value attribute-escaped — the one
/// attribute encoder, shared by [`write_element`] and by callers that stream
/// elements without building an [`Element`] first.
pub fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("='");
    escape_into(out, value, true);
    out.push('\'');
}

/// Appends `el` pretty-printed at nesting depth `indent` (two spaces per
/// level, one line per element, trailing newline): exactly the bytes
/// [`write`] emits for `el` as a descendant at that depth, so a fragment
/// rendered here can be spliced into a larger document.
pub fn write_element(out: &mut String, el: &Element, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push('<');
    out.push_str(&el.name);
    for a in &el.attrs {
        push_attr(out, &a.name, &a.value);
    }
    if el.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    // Pure-text elements render inline; mixed/element content renders nested.
    let only_text = el.children.iter().all(|c| matches!(c, XmlNode::Text(_)));
    if only_text {
        out.push('>');
        for c in &el.children {
            if let XmlNode::Text(t) = c {
                escape_into(out, t, false);
            }
        }
        out.push_str("</");
        out.push_str(&el.name);
        out.push_str(">\n");
        return;
    }
    out.push_str(">\n");
    for c in &el.children {
        match c {
            XmlNode::Element(e) => write_element(out, e, indent + 1),
            XmlNode::Text(t) => {
                let t = t.trim();
                if !t.is_empty() {
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(out, t, false);
                    out.push('\n');
                }
            }
        }
    }
    out.push_str(&pad);
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">\n");
}

/// Serialises an element tree as a pretty-printed document (with XML
/// declaration).  `parse(write(el))` reproduces `el` up to insignificant
/// whitespace around element-content children.
pub fn write(el: &Element) -> String {
    let mut out = String::from("<?xml version='1.0'?>\n");
    write_element(&mut out, el, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure_2_fragment() {
        // Verbatim structure from the paper's Figure 2 (retrying example).
        let src = r#"
<Workflow>
  <Activity name='summation' max_tries='3' interval='10'>
    <Input>vector.dat</Input>
    <Output>sum.out</Output>
    <Implement>sum</Implement>
  </Activity>
  <Program name='sum'>
    <Option hostname='bolas.isi.edu' service='jobmanager'
            executableDir='/XML/EXAMPLE/' executable='sum'/>
  </Program>
</Workflow>"#;
        let root = parse(src).unwrap();
        assert_eq!(root.name, "Workflow");
        let act = root.first_child("Activity").unwrap();
        assert_eq!(act.get_attr("name"), Some("summation"));
        assert_eq!(act.get_attr("max_tries"), Some("3"));
        assert_eq!(act.get_attr("interval"), Some("10"));
        assert_eq!(act.first_child("Implement").unwrap().text_content(), "sum");
        let prog = root.first_child("Program").unwrap();
        let opt = prog.first_child("Option").unwrap();
        assert_eq!(opt.get_attr("hostname"), Some("bolas.isi.edu"));
        assert_eq!(opt.get_attr("executableDir"), Some("/XML/EXAMPLE/"));
    }

    #[test]
    fn parses_replica_options_figure_3() {
        let src = r#"
<Program name='sum'>
  <Option hostname='bolas.isi.edu'/>
  <Option hostname='vanuatu.isi.edu'/>
  <Option hostname='jupiter.isi.edu'/>
</Program>"#;
        let root = parse(src).unwrap();
        let hosts: Vec<&str> = root
            .children_named("Option")
            .map(|o| o.get_attr("hostname").unwrap())
            .collect();
        assert_eq!(
            hosts,
            vec!["bolas.isi.edu", "vanuatu.isi.edu", "jupiter.isi.edu"]
        );
    }

    #[test]
    fn xml_declaration_doctype_comments_skipped() {
        let src = "<?xml version='1.0' encoding='UTF-8'?>\n<!DOCTYPE Workflow SYSTEM 'wpdl.dtd'>\n<!-- header -->\n<a/>\n<!-- trailer -->";
        let root = parse(src).unwrap();
        assert_eq!(root.name, "a");
        assert!(root.children.is_empty());
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let src = "<a note='x &amp; y &lt;z&gt; &#65;'>&quot;hi&apos; &#x42;</a>";
        let root = parse(src).unwrap();
        assert_eq!(root.get_attr("note"), Some("x & y <z> A"));
        assert_eq!(root.text_content(), "\"hi' B");
    }

    #[test]
    fn cdata_passes_through_raw() {
        let src = "<a><![CDATA[ 1 < 2 && 3 > 2 ]]></a>";
        let root = parse(src).unwrap();
        assert_eq!(root.text_content(), "1 < 2 && 3 > 2");
    }

    #[test]
    fn mixed_content_order_preserved() {
        let src = "<a>one<b/>two<c/>three</a>";
        let root = parse(src).unwrap();
        assert_eq!(root.children.len(), 5);
        assert!(matches!(&root.children[0], XmlNode::Text(t) if t == "one"));
        assert!(matches!(&root.children[1], XmlNode::Element(e) if e.name == "b"));
        assert!(matches!(&root.children[4], XmlNode::Text(t) if t == "three"));
    }

    #[test]
    fn error_positions_are_accurate() {
        let src = "<a>\n  <b>\n</a>";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
        assert_eq!(err.pos.line, 3);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse("<a x='1' x='2'/>").unwrap_err();
        assert!(err.message.contains("duplicate attribute 'x'"), "{err}");
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn unterminated_tag_rejected() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(err.message.contains("trailing content"), "{err}");
    }

    #[test]
    fn both_quote_styles_accepted() {
        let root = parse(r#"<a x="double" y='single'/>"#).unwrap();
        assert_eq!(root.get_attr("x"), Some("double"));
        assert_eq!(root.get_attr("y"), Some("single"));
    }

    #[test]
    fn utf8_content_survives() {
        let src = "<a title='héllo — wörld'>中文 ✓</a>";
        let root = parse(src).unwrap();
        assert_eq!(root.get_attr("title"), Some("héllo — wörld"));
        assert_eq!(root.text_content(), "中文 ✓");
    }

    #[test]
    fn writer_roundtrip_structured() {
        let el = Element::new("Workflow")
            .attr("name", "w")
            .child(
                Element::new("Activity")
                    .attr("name", "a & b")
                    .child(Element::new("Implement").text("sum<1>")),
            )
            .child(Element::new("Empty"));
        let text = write(&el);
        let back = parse(&text).unwrap();
        assert_eq!(back.name, "Workflow");
        let act = back.first_child("Activity").unwrap();
        assert_eq!(act.get_attr("name"), Some("a & b"));
        assert_eq!(
            act.first_child("Implement").unwrap().text_content(),
            "sum<1>"
        );
        assert!(back.first_child("Empty").unwrap().children.is_empty());
    }

    #[test]
    fn writer_escapes_attr_quotes() {
        let el = Element::new("a").attr("v", "it's \"quoted\"");
        let back = parse(&write(&el)).unwrap();
        assert_eq!(back.get_attr("v"), Some("it's \"quoted\""));
    }

    fn fragment_sample() -> Element {
        Element::new("Workflow")
            .attr("name", "it's \"a\" <w> & co")
            .child(
                Element::new("Activity")
                    .attr("name", "a")
                    .child(Element::new("Input").text("x < y & \"z\""))
                    .child(Element::new("Foreach").child(Element::new("Item").text("héllo"))),
            )
            .child(Element::new("Empty"))
            .child(
                Element::new("Mixed")
                    .text(" lead ")
                    .child(Element::new("b")),
            )
    }

    #[test]
    fn fragment_at_depth_zero_is_the_document_body() {
        let el = fragment_sample();
        let mut out = String::from("<?xml version='1.0'?>\n");
        write_element(&mut out, &el, 0);
        assert_eq!(out, write(&el));
    }

    #[test]
    fn fragment_splices_into_a_parent_byte_for_byte() {
        let el = fragment_sample();
        for depth in 1..4 {
            // `depth` nested parents p0 > p1 > ..; the innermost also holds
            // a sibling after the fragment.
            let mut doc = Element::new(format!("p{}", depth - 1))
                .child(el.clone())
                .child(Element::new("Sibling").attr("k", "v"));
            for level in (0..depth - 1).rev() {
                doc = Element::new(format!("p{level}")).child(doc);
            }
            let mut spliced = String::from("<?xml version='1.0'?>\n");
            for level in 0..depth {
                spliced.push_str(&format!("{}<p{level}>\n", "  ".repeat(level)));
            }
            write_element(&mut spliced, &el, depth);
            spliced.push_str(&format!("{}<Sibling k='v'/>\n", "  ".repeat(depth)));
            for level in (0..depth).rev() {
                spliced.push_str(&format!("{}</p{level}>\n", "  ".repeat(level)));
            }
            assert_eq!(spliced, write(&doc), "depth {depth}");
        }
    }

    #[test]
    fn fragment_of_a_childless_element_self_closes() {
        let mut out = String::new();
        write_element(&mut out, &Element::new("Runtime"), 1);
        assert_eq!(out, "  <Runtime/>\n");
    }

    #[test]
    fn push_attr_escapes_all_five_and_keeps_utf8() {
        let mut out = String::from("<a");
        push_attr(&mut out, "v", "' \" & < > é—✓ tail");
        push_attr(&mut out, "plain", "no-specials");
        push_attr(&mut out, "empty", "");
        out.push_str("/>");
        assert_eq!(
            out,
            "<a v='&apos; &quot; &amp; &lt; &gt; é—✓ tail' plain='no-specials' empty=''/>"
        );
        let back = parse(&out).unwrap();
        assert_eq!(back.get_attr("v"), Some("' \" & < > é—✓ tail"));
    }

    #[test]
    fn text_escapes_only_markup_characters() {
        let text = write(&Element::new("a").text("it's \"1 < 2\" & 3 > 2"));
        assert!(
            text.ends_with("<a>it's \"1 &lt; 2\" &amp; 3 &gt; 2</a>\n"),
            "{text}"
        );
    }

    #[test]
    fn builder_helpers() {
        let el = Element::new("x").attr("k", "v").text("body");
        assert_eq!(el.get_attr("k"), Some("v"));
        assert_eq!(el.get_attr("missing"), None);
        assert_eq!(el.text_content(), "body");
    }

    #[test]
    fn whitespace_only_text_between_elements_is_insignificant_in_writer() {
        let src = "<a>\n  <b/>\n  <c/>\n</a>";
        let root = parse(src).unwrap();
        let again = parse(&write(&root)).unwrap();
        let names: Vec<&str> = again.child_elements().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn deeply_nested_documents() {
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let root = parse(&src).unwrap();
        assert_eq!(root.name, "n0");
    }

    #[test]
    fn numeric_character_reference_bounds() {
        assert!(parse("<a>&#1114112;</a>").is_err(), "beyond char::MAX");
        assert!(parse("<a>&#xD800;</a>").is_err(), "surrogate rejected");
        assert_eq!(parse("<a>&#x1F600;</a>").unwrap().text_content(), "😀");
    }
}
