//! The client side of `serve_mix`: a line-protocol connection, and the
//! shape of a correct reply.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A checked `RESULT … END` reply.  Its `elapsed_us=` field differs from
/// run to run, so the reply is held as the bytes before and after it.
pub struct Reply {
    before: String,
    after: String,
}

const ELAPSED: &str = " elapsed_us=";

fn split_elapsed(reply: &str) -> Option<(&str, &str)> {
    let at = reply.find(ELAPSED)? + ELAPSED.len();
    let digits = reply[at..].bytes().take_while(u8::is_ascii_digit).count();
    Some((&reply[..at], &reply[at + digits..]))
}

impl Reply {
    /// From a reply rendered in-process for a checked result.
    pub fn new(rendered: &str) -> Option<Reply> {
        let (before, after) = split_elapsed(rendered)?;
        Some(Reply {
            before: before.to_string(),
            after: after.to_string(),
        })
    }

    /// Is `got` this reply, byte for byte, outside the elapsed field?
    pub fn matches(&self, got: &str) -> bool {
        split_elapsed(got) == Some((&self.before, &self.after))
    }
}

/// One line-protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    greeted: bool,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            greeted: false,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")
    }

    fn read_line(&mut self, into: &mut String) -> io::Result<()> {
        if self.reader.read_line(into)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Send one `QUERY <text>` line and read the whole reply into `reply`:
    /// the `RESULT`/`ITEMS`/`END` lines, or a single `ERR` line.
    pub fn request(&mut self, command: &str, reply: &mut String) -> io::Result<()> {
        self.send(command)?;
        reply.clear();
        if !self.greeted {
            // The server speaks only after the first command; its banner
            // precedes the first reply.
            self.read_line(reply)?;
            reply.clear();
            self.greeted = true;
        }
        self.read_line(reply)?;
        if reply.starts_with("RESULT ") {
            while !reply.ends_with("\nEND\n") {
                self.read_line(reply)?;
            }
        }
        Ok(())
    }

    pub fn quit(mut self) -> io::Result<()> {
        self.send("QUIT")?;
        let mut bye = String::new();
        self.read_line(&mut bye)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_ignores_only_the_elapsed_field() {
        let checked = "RESULT rows=2 nodes=5 elapsed_us=42 granted=-\nITEMS 3 7\nEND\n";
        let reply = Reply::new(checked).unwrap();
        assert!(reply.matches(&checked.replace("=42", "=1234567")));
        assert!(!reply.matches(&checked.replace("ITEMS 3 7", "ITEMS 3 8")));
        assert!(!reply.matches("ERR timeout waited too long\n"));
    }
}
